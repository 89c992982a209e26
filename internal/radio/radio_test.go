package radio

import (
	"math"
	"testing"

	"megamimo/internal/rng"
	"megamimo/internal/units"
)

func TestOscillatorOffsets(t *testing.T) {
	o := &Oscillator{PPM: 2, CarrierHz: 2.4e9, SampleRate: 10e6}
	if got := o.FreqOffsetHz(); units.Abs(got-4800) > 1e-6 {
		t.Fatalf("FreqOffsetHz = %v, want 4800", got)
	}
	want := 2 * math.Pi * 4800 / 10e6
	if got := o.CFORadPerSample(); math.Abs(units.Ratio(got, 1)-want) > 1e-12 {
		t.Fatalf("CFORadPerSample = %v, want %v", got, want)
	}
}

func TestPhaseAtLinearWithoutWander(t *testing.T) {
	o := &Oscillator{PPM: -3, CarrierHz: 2.4e9, SampleRate: 10e6, Phase0: 0.5}
	w := o.CFORadPerSample()
	for _, n := range []int64{0, 1, 1000, 1 << 30} {
		want := units.PhaseAdvance(w, units.Samples(n)) + 0.5
		if got := o.PhaseAt(n); units.Abs(got-want) > 1e-6 {
			t.Fatalf("PhaseAt(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestPhaseWanderAccumulates(t *testing.T) {
	src := rng.New(1)
	o := NewOscillator(src, 2, 2.4e9, 10e6)
	o.WanderStd = 1e-3
	base := units.PhaseAdvance(o.CFORadPerSample(), 1e6) + o.Phase0
	p1 := o.PhaseAt(1e6)
	if p1 == base {
		t.Fatal("wander had no effect")
	}
	// Monotonic time: wander accumulates with sqrt scaling, so over many
	// steps the variance grows.
	var drift float64
	last := p1 - base
	for i := int64(2); i < 50; i++ {
		p := o.PhaseAt(i * 1e6)
		lin := units.PhaseAdvance(o.CFORadPerSample(), units.Samples(i*1e6)) + o.Phase0
		d := p - lin
		drift += float64(units.Abs(d - last))
		last = d
	}
	if drift == 0 {
		t.Fatal("wander froze")
	}
}

func TestNewOscillatorWithinBudget(t *testing.T) {
	src := rng.New(7)
	for i := 0; i < 200; i++ {
		o := NewOscillator(src.Split(uint64(i)), 5, 2.4e9, 20e6)
		if units.Abs(o.PPM) > 5 {
			t.Fatalf("ppm %v outside ±5 budget", o.PPM)
		}
		if o.Phase0 < -math.Pi || o.Phase0 >= math.Pi {
			t.Fatalf("phase0 %v out of range", o.Phase0)
		}
	}
}

func TestOscillatorsAreIndependent(t *testing.T) {
	src := rng.New(9)
	a := NewOscillator(src.Split(1), 20, 2.4e9, 10e6)
	b := NewOscillator(src.Split(2), 20, 2.4e9, 10e6)
	if a.PPM == b.PPM {
		t.Fatal("two oscillators drew identical ppm")
	}
}

func TestNewNode(t *testing.T) {
	src := rng.New(11)
	n := NewNode(3, src, 2, 2.4e9, 10e6, 6, 7)
	if n.ID != 3 || len(n.Antennas) != 2 || n.Antennas[1] != 7 {
		t.Fatalf("node misbuilt: %+v", n)
	}
	if n.Osc == nil || n.Osc.SampleRate != 10e6 {
		t.Fatal("node oscillator misconfigured")
	}
}
