package air

import (
	"math/cmplx"
	"testing"
	"testing/quick"

	"megamimo/internal/channel"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// Property: the medium is linear — observing two emissions together equals
// the sum of observing each alone.
func TestQuickSuperpositionLinearity(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		mk := func() *Air {
			a := New(Config{SampleRate: 10e6, NoiseVar: 0, Seed: 1})
			a.SetLink(0, 9, channel.NewLink(rng.New(seed).Split(1), channel.DefaultIndoor, 1, 0))
			a.SetLink(1, 9, channel.NewLink(rng.New(seed).Split(2), channel.DefaultIndoor, 1, 1))
			return a
		}
		o0 := testOsc(units.PPM(src.Uniform(-2, 2)))
		o1 := testOsc(units.PPM(src.Uniform(-2, 2)))
		or := testOsc(units.PPM(src.Uniform(-2, 2)))
		x0 := src.AddComplexNormal(make([]complex128, 200), 1)
		x1 := src.AddComplexNormal(make([]complex128, 150), 1)

		both := mk()
		both.Transmit(0, o0, 0, x0)
		both.Transmit(1, o1, 37, x1)
		yBoth := both.ObserveCleanInto(nil, 9, or, 0, 300)

		only0 := mk()
		only0.Transmit(0, o0, 0, x0)
		y0 := only0.ObserveCleanInto(nil, 9, or, 0, 300)

		only1 := mk()
		only1.Transmit(1, o1, 37, x1)
		y1 := only1.ObserveCleanInto(nil, 9, or, 0, 300)

		for i := range yBoth {
			if cmplx.Abs(yBoth[i]-(y0[i]+y1[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling the transmitted samples scales the observation.
func TestQuickObservationHomogeneity(t *testing.T) {
	f := func(seed int64) bool {
		src := rng.New(seed)
		x := src.AddComplexNormal(make([]complex128, 120), 1)
		scaled := make([]complex128, len(x))
		k := complex(src.Uniform(0.1, 3), src.Uniform(-1, 1))
		for i := range x {
			scaled[i] = k * x[i]
		}
		osc := testOsc(units.PPM(src.Uniform(-2, 2)))
		or := testOsc(units.PPM(src.Uniform(-2, 2)))

		a := New(Config{SampleRate: 10e6, NoiseVar: 0, Seed: 1})
		a.SetLink(0, 9, channel.NewLink(rng.New(seed).Split(7), channel.DefaultIndoor, 1, 0))
		a.Transmit(0, osc, 5, x)
		y := a.ObserveCleanInto(nil, 9, or, 0, 160)

		b := New(Config{SampleRate: 10e6, NoiseVar: 0, Seed: 1})
		b.SetLink(0, 9, channel.NewLink(rng.New(seed).Split(7), channel.DefaultIndoor, 1, 0))
		b.Transmit(0, osc, 5, scaled)
		ys := b.ObserveCleanInto(nil, 9, or, 0, 160)

		for i := range y {
			if cmplx.Abs(ys[i]-k*y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
