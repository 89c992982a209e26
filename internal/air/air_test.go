package air

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"

	"megamimo/internal/channel"
	"megamimo/internal/cmplxs"
	"megamimo/internal/dsp"
	"megamimo/internal/radio"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

func testOsc(ppm units.PPM) *radio.Oscillator {
	return &radio.Oscillator{PPM: ppm, CarrierHz: 2.4e9, SampleRate: 10e6}
}

func flatLink(gain complex128) *channel.Link {
	return &channel.Link{Taps: []complex128{gain}}
}

func newTestAir(noiseVar float64) *Air {
	return New(Config{SampleRate: 10e6, NoiseVar: noiseVar, Seed: 1})
}

func ramp(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(float64(i+1), 0)
	}
	return out
}

func TestFlatLinkPassthrough(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 1, flatLink(0.5))
	osc := testOsc(0)
	x := ramp(100)
	a.Transmit(0, osc, 0, x)
	y := a.ObserveCleanInto(nil, 1, testOsc(0), 0, 100)
	for i := range x {
		if cmplx.Abs(y[i]-0.5*x[i]) > 1e-9 {
			t.Fatalf("sample %d: %v != %v", i, y[i], 0.5*x[i])
		}
	}
}

func TestNoLinkMeansSilence(t *testing.T) {
	a := newTestAir(0)
	a.Transmit(0, testOsc(0), 0, ramp(50))
	y := a.ObserveCleanInto(nil, 1, testOsc(0), 0, 50)
	for _, v := range y {
		if v != 0 {
			t.Fatal("unconnected antennas leaked signal")
		}
	}
}

func TestDelayShiftsArrival(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 1, &channel.Link{Taps: []complex128{1}, Delay: 7})
	a.Transmit(0, testOsc(0), 10, ramp(20))
	y := a.ObserveCleanInto(nil, 1, testOsc(0), 0, 40)
	for i := 0; i < 17; i++ {
		if y[i] != 0 {
			t.Fatalf("energy before arrival at %d", i)
		}
	}
	if cmplx.Abs(y[17]-1) > 1e-12 {
		t.Fatalf("first sample %v at 17", y[17])
	}
}

func TestObserveWindowing(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 1, flatLink(1))
	a.Transmit(0, testOsc(0), 100, ramp(50))
	// Window starting mid-emission.
	y := a.ObserveCleanInto(nil, 1, testOsc(0), 120, 10)
	for i := range y {
		want := complex(float64(20+i+1), 0)
		if cmplx.Abs(y[i]-want) > 1e-9 {
			t.Fatalf("windowed sample %d = %v, want %v", i, y[i], want)
		}
	}
}

func TestMultipathConvolution(t *testing.T) {
	a := newTestAir(0)
	taps := []complex128{1, 0.5i}
	a.SetLink(0, 1, &channel.Link{Taps: taps})
	x := []complex128{1, 2}
	a.Transmit(0, testOsc(0), 0, x)
	y := a.ObserveCleanInto(nil, 1, testOsc(0), 0, 3)
	want := []complex128{1, 2 + 0.5i, 1i}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("conv sample %d = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestTwoTransmittersSuperpose(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 2, flatLink(1))
	a.SetLink(1, 2, flatLink(1))
	osc := testOsc(0)
	a.Transmit(0, osc, 0, []complex128{1, 1, 1})
	a.Transmit(1, osc, 1, []complex128{2i, 2i})
	y := a.ObserveCleanInto(nil, 2, testOsc(0), 0, 4)
	want := []complex128{1, 1 + 2i, 1 + 2i, 0}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("superposition sample %d = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestCFORotatesReceivedSignal(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 1, flatLink(1))
	tx := testOsc(2) // +2 ppm of 2.4 GHz = 4.8 kHz
	rx := testOsc(0)
	n := 1000
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	a.Transmit(0, tx, 0, x)
	y := a.ObserveCleanInto(nil, 1, rx, 0, n)
	w := tx.CFORadPerSample()
	for _, i := range []int{0, 100, 999} {
		want := cmplxs.Expi(units.PhaseAdvance(w, units.Samples(i)))
		if cmplx.Abs(y[i]-want) > 1e-6 {
			t.Fatalf("CFO rotation at %d: %v, want %v", i, y[i], want)
		}
	}
}

func TestRelativeCFOIsDifferenceOfOffsets(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 1, flatLink(1))
	tx, rx := testOsc(3), testOsc(3) // identical ppm ⇒ no relative rotation
	n := 2000
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	a.Transmit(0, tx, 0, x)
	y := a.ObserveCleanInto(nil, 1, rx, 0, n)
	if cmplxs.PhaseDiff(y[n-1], y[0]) > 1e-9 {
		t.Fatal("matched oscillators still rotated")
	}
}

func TestPhaseContinuityAcrossObservations(t *testing.T) {
	// Observing the same emission in two windows must be phase-consistent
	// (slaves measure the lead's phase at different times — continuity is
	// what makes that meaningful).
	a := newTestAir(0)
	a.SetLink(0, 1, flatLink(1))
	tx, rx := testOsc(1.5), testOsc(-0.5)
	n := 4000
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	a.Transmit(0, tx, 0, x)
	full := a.ObserveCleanInto(nil, 1, rx, 0, n)
	part1 := a.ObserveCleanInto(nil, 1, rx, 0, n/2)
	part2 := a.ObserveCleanInto(nil, 1, rx, int64(n/2), n/2)
	for i := 0; i < n/2; i++ {
		if cmplx.Abs(part1[i]-full[i]) > 1e-9 || cmplx.Abs(part2[i]-full[n/2+i]) > 1e-9 {
			t.Fatalf("windowed observation diverges at %d", i)
		}
	}
}

func TestNoiseStatistics(t *testing.T) {
	a := newTestAir(0.04)
	y := a.Observe(1, testOsc(0), 0, 100000)
	var p float64
	for _, v := range y {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(len(y))
	if math.Abs(p-0.04) > 0.003 {
		t.Fatalf("noise power %v, want 0.04", p)
	}
}

func TestObserveCleanIsNoiseless(t *testing.T) {
	a := newTestAir(1)
	y := a.ObserveCleanInto(nil, 1, testOsc(0), 0, 100)
	for _, v := range y {
		if v != 0 {
			t.Fatal("ObserveCleanInto added noise")
		}
	}
}

// TestObserveIntoReusesDirtyWindow: ObserveInto clears and refills the
// caller's buffer, so a window built over stale samples equals a fresh
// Observe bit for bit, single-shard and sharded alike, and aliases dst.
func TestObserveIntoReusesDirtyWindow(t *testing.T) {
	for _, emissions := range []int{1, 3 * shardSize} {
		build := func() *Air {
			a := newTestAir(0.01)
			for tx := 0; tx < emissions; tx++ {
				a.SetLink(tx, 99, &channel.Link{Taps: []complex128{0.5, 0.1i}, Delay: tx})
				a.Transmit(tx, testOsc(units.PPM(tx)), int64(10*tx), ramp(80))
			}
			return a
		}
		want := build().Observe(99, testOsc(1), 0, 200)
		dst := make([]complex128, 300)
		for i := range dst {
			dst[i] = complex(float64(i), -1)
		}
		got := build().ObserveInto(dst, 99, testOsc(1), 0, 200)
		if &got[0] != &dst[0] {
			t.Fatalf("%d emissions: ObserveInto did not reuse dst", emissions)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d emissions: sample %d is %v over a dirty buffer, %v fresh", emissions, i, got[i], want[i])
			}
		}
	}
}

func TestClearBeforeDropsOldEmissions(t *testing.T) {
	a := newTestAir(0)
	a.SetLink(0, 1, flatLink(1))
	a.Transmit(0, testOsc(0), 0, ramp(10))
	a.Transmit(0, testOsc(0), 100000, ramp(10))
	if a.NumEmissions() != 2 {
		t.Fatal("setup")
	}
	a.ClearBefore(50000)
	if a.NumEmissions() != 1 {
		t.Fatalf("%d emissions after ClearBefore", a.NumEmissions())
	}
	a.Reset()
	if a.NumEmissions() != 0 {
		t.Fatal("Reset left emissions")
	}
}

func TestTransmitValidation(t *testing.T) {
	a := newTestAir(0)
	defer func() {
		if recover() == nil {
			t.Fatal("nil oscillator accepted")
		}
	}()
	a.Transmit(0, nil, 0, ramp(1))
}

func TestRayleighLinkEndToEndSNR(t *testing.T) {
	// End-to-end budget: unit-power signal through a link with power gain
	// g over noise var nv should observe SNR ≈ g/nv.
	src := rng.New(5)
	gain := 0.01 // −20 dB link
	nv := 1e-4   // ⇒ 20 dB SNR
	a := New(Config{SampleRate: 10e6, NoiseVar: nv, Seed: 2})
	l := channel.NewLink(src, channel.Params{NTaps: 1, DecaySamples: 1}, gain, 0)
	a.SetLink(0, 1, l)
	n := 50000
	x := src.AddComplexNormal(make([]complex128, n), 1)
	a.Transmit(0, testOsc(1), 0, x)
	y := a.Observe(1, testOsc(-1), 0, n)
	var p float64
	for _, v := range y {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p /= float64(n)
	wantP := l.PowerGain() + nv
	if math.Abs(p-wantP)/wantP > 0.05 {
		t.Fatalf("received power %v, want %v", p, wantP)
	}
}

func BenchmarkObserveJointTransmission(b *testing.B) {
	src := rng.New(1)
	a := New(Config{SampleRate: 10e6, NoiseVar: 1e-4, Seed: 3})
	nAPs := 10
	oscs := make([]*radio.Oscillator, nAPs)
	x := src.AddComplexNormal(make([]complex128, 4000), 1)
	for i := 0; i < nAPs; i++ {
		oscs[i] = testOsc(units.PPM(i) - 5)
		a.SetLink(i, 100, channel.NewLink(src.Split(uint64(i)), channel.DefaultIndoor, 0.01, 0))
		a.Transmit(i, oscs[i], 0, x)
	}
	rx := testOsc(0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Observe(100, rx, 0, 4100)
	}
}

// BenchmarkObserveMeasurement has a re-measurement round's shape: 37
// packets of 490 samples from 8 transmit antennas over 3-tap links,
// staggered across one 4,381-sample window, so each shard hears only a
// stretch of the window.
func BenchmarkObserveMeasurement(b *testing.B) {
	const nTx, packets, packetLen, window = 8, 37, 490, 4381
	src := rng.New(1)
	a := New(Config{SampleRate: 10e6, NoiseVar: 1e-4, Seed: 3})
	oscs := make([]*radio.Oscillator, nTx)
	for i := range oscs {
		oscs[i] = testOsc(units.PPM(i) - 4)
		a.SetLink(i, 100, &channel.Link{Taps: src.AddComplexNormal(make([]complex128, 3), 1)})
	}
	x := src.AddComplexNormal(make([]complex128, packetLen), 1)
	for p := 0; p < packets; p++ {
		a.Transmit(p%nTx, oscs[p%nTx], int64(p*(window-packetLen)/(packets-1)), x)
	}
	rx := testOsc(0.3)
	dst := make([]complex128, window+ObserveTail)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ObserveInto(dst, 100, rx, 0, window)
	}
}

func TestShardedObservationWorkerInvariance(t *testing.T) {
	defer SetWorkers(0)
	build := func() *Air {
		a := newTestAir(0)
		r := rng.New(42)
		for tx := 0; tx < 6; tx++ {
			a.SetLink(tx, 99, &channel.Link{
				Taps:  []complex128{complex(r.Uniform(0.2, 1), r.Uniform(-0.5, 0.5)), complex(r.Uniform(-0.3, 0.3), 0), 0, complex(r.Uniform(-0.1, 0.1), 0)},
				Delay: tx * 3,
			})
		}
		// Enough emissions to span many shards, deliberately posted out of
		// start order to exercise the re-sort. Each is long enough that a
		// sample sums arrivals from three or more shards, so a change in
		// the shard reduction order moves its rounding.
		for i := 0; i < 10*shardSize; i++ {
			tx := i % 6
			start := int64(((i * 37) % 40) * 25)
			a.Transmit(tx, testOsc(units.PPM(float64(tx)-2.5)), start, ramp(320))
		}
		return a
	}
	SetWorkers(1)
	serial := build().ObserveCleanInto(nil, 99, testOsc(1.5), 0, 1200)
	for _, w := range []int{2, 4, 16} {
		SetWorkers(w)
		got := build().ObserveCleanInto(nil, 99, testOsc(1.5), 0, 1200)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: sample %d differs from serial: %v != %v", w, i, got[i], serial[i])
			}
		}
	}
}

// observeFullWindow is observe's summation with every shard summed over
// the whole window, the empty ones included, and reduced onto a cleared
// window in shard order: the reference TestObserveTrimmedShardsMatchFullWindow
// holds the trimmed shards to.
func observeFullWindow(a *Air, rx int, osc *radio.Oscillator, start int64, n int) []complex128 {
	ether := make([]complex128, n+ObserveTail)
	sort.SliceStable(a.emissions, func(i, j int) bool { return a.emissions[i].start < a.emissions[j].start })
	a.unsorted = false
	cut := sort.Search(len(a.emissions), func(i int) bool {
		return a.emissions[i].start >= start+int64(len(ether))
	})
	arrivals := a.resolve(start, len(ether), rx, osc, cut)
	for s := 0; s < cut; s += shardSize {
		buf := make([]complex128, len(ether))
		for _, r := range arrivals[s:min(cut, s+shardSize)] {
			if r.lo < r.hi {
				dsp.ConvolveRotateAdd(buf[r.lo-start:r.hi-start], r.samples, r.taps, r.oLo, r.rot, r.step)
			}
		}
		for i := range ether {
			ether[i] += buf[i]
		}
	}
	return ether[:n]
}

// TestObserveTrimmedShardsMatchFullWindow holds observe, whose shards sum
// only over the span their arrivals reach, to full-window shards bit for
// bit, at one worker and at four: sparse emissions of mixed lengths,
// posted out of order, over 1- to 4-tap links with delays, from an
// unlinked transmitter too, with shards wholly before the window, wholly
// inside it and straddling either edge.
func TestObserveTrimmedShardsMatchFullWindow(t *testing.T) {
	defer SetWorkers(0)
	build := func(seed int64) *Air {
		a := newTestAir(0)
		r := rng.New(seed)
		for tx := 0; tx < 6; tx++ { // transmitter 6 has no link
			taps := make([]complex128, 1+tx%4)
			for i := range taps {
				taps[i] = complex(r.Uniform(-1, 1), r.Uniform(-1, 1))
			}
			a.SetLink(tx, 99, &channel.Link{Taps: taps, Delay: tx * 5})
		}
		for i := 0; i < 60; i++ {
			tx := (i * 5) % 7
			start := int64(((i * 53) % 60) * 60) // 0..3540, out of order
			samples := make([]complex128, 20+(i*97)%380)
			for k := range samples {
				samples[k] = complex(r.Uniform(-1, 1), r.Uniform(-1, 1))
			}
			a.Transmit(tx, testOsc(units.PPM(float64(tx)-3)), start, samples)
		}
		return a
	}
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		for seed := int64(1); seed <= 4; seed++ {
			for _, win := range [][2]int64{{1200, 1500}, {0, 4000}, {3000, 800}, {90, 7}} {
				start, n := win[0], int(win[1])
				want := observeFullWindow(build(seed), 99, testOsc(1.5), start, n)
				dirty := make([]complex128, n+ObserveTail)
				for i := range dirty {
					dirty[i] = complex(math.NaN(), -1)
				}
				got := build(seed).ObserveCleanInto(dirty, 99, testOsc(1.5), start, n)
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("workers=%d seed %d window [%d,+%d): sample %d = %v, full-window shards %v",
							w, seed, start, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}
