package units

import (
	"math"
	"testing"
)

// close reports near-equality with a relative tolerance suited to
// round-tripped float64 arithmetic.
func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale
}

func TestWrapRadians(t *testing.T) {
	cases := []struct{ in, want Radians }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{3 * math.Pi, math.Pi},
		{-3.5 * math.Pi, 0.5 * math.Pi},
		{7.25 * math.Pi, -0.75 * math.Pi},
	}
	for _, c := range cases {
		if got := WrapRadians(c.in); !closeTo(float64(got), float64(c.want)) {
			t.Errorf("WrapRadians(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, p := range []Radians{-100.3, -1, 0.5, 17.9, 1e4} {
		w := WrapRadians(p)
		if w <= -math.Pi || w > math.Pi {
			t.Errorf("WrapRadians(%v) = %v outside (-π, π]", p, w)
		}
	}
}

func TestPhaseAdvanceRoundTrip(t *testing.T) {
	w := RadPerSample(3.7e-4)
	dt := Samples(12345)
	phi := PhaseAdvance(w, dt)
	if got := RadiansOver(phi, dt); !closeTo(float64(got), float64(w)) {
		t.Errorf("RadiansOver(PhaseAdvance(w, dt), dt) = %v, want %v", got, w)
	}
}

func TestFrequencyConversionsRoundTrip(t *testing.T) {
	const (
		carrier = Hertz(2.437e9)
		rate    = Hertz(10e6)
	)
	ppm := PPM(13.25)
	off := FreqOffset(ppm, carrier)
	if want := 2.437e9 * 13.25e-6; !closeTo(float64(off), want) {
		t.Errorf("FreqOffset = %v, want %v", off, want)
	}
	w := HzToRadPerSample(off, rate)
	if got := RadPerSampleToHz(w, rate); !closeTo(float64(got), float64(off)) {
		t.Errorf("RadPerSampleToHz(HzToRadPerSample(off)) = %v, want %v", got, off)
	}
	if got := PPMToRadPerSample(ppm, carrier, rate); got != w {
		t.Errorf("PPMToRadPerSample = %v, want the FreqOffset∘HzToRadPerSample composition %v", got, w)
	}
	if got := RadPerSampleToPPM(w, carrier, rate); !closeTo(float64(got), float64(ppm)) {
		t.Errorf("RadPerSampleToPPM(PPMToRadPerSample(ppm)) = %v, want %v", got, ppm)
	}
}

// TestMandateConstants locks the paper's numeric gates: the π/18 phase
// budget is exactly 10°, and the ±40 ppm relative-CFO mandate is exactly
// twice the 802.11 per-oscillator tolerance. The trace anomaly gate
// (tracefmt.DefaultBudget) builds its thresholds from these identities;
// a drifted constant on either side breaks this test.
func TestMandateConstants(t *testing.T) {
	if got := RadiansToDegrees(math.Pi / 18); !closeTo(got, 10) {
		t.Errorf("π/18 rad = %v°, want 10°", got)
	}
	if got := DegreesToRadians(10); !closeTo(float64(got), math.Pi/18) {
		t.Errorf("10° = %v rad, want π/18", got)
	}
	if Dot11MaxPPM != 20 {
		t.Errorf("Dot11MaxPPM = %v, want the 802.11 ±20 ppm mandate", Dot11MaxPPM)
	}
	if rel := 2 * Dot11MaxPPM; rel != 40 {
		t.Errorf("worst-case relative CFO = %v ppm, want 40", rel)
	}
	// At the default 2.437 GHz carrier and 10 MS/s, 40 ppm must survive a
	// rad/sample round trip: this is the exact conversion chain the
	// anomaly detector applies to traced CFO estimates.
	w := PPMToRadPerSample(2*Dot11MaxPPM, 2.437e9, 10e6)
	if got := RadPerSampleToPPM(w, 2.437e9, 10e6); !closeTo(float64(got), 40) {
		t.Errorf("40 ppm → rad/sample → ppm = %v, want 40", got)
	}
}

func TestDecibels(t *testing.T) {
	for _, db := range []Decibels{-30, -3, 0, 3, 10, 25.5} {
		lin := DBToLinear(db)
		if got := LinearToDB(lin); !closeTo(float64(got), float64(db)) {
			t.Errorf("LinearToDB(DBToLinear(%v)) = %v", db, got)
		}
	}
	if got := DBToLinear(10); !closeTo(got, 10) {
		t.Errorf("DBToLinear(10) = %v, want 10", got)
	}
	if got := LinearToDB(100); !closeTo(float64(got), 20) {
		t.Errorf("LinearToDB(100) = %v, want 20", got)
	}
}

func TestDurationTicks(t *testing.T) {
	if got := Duration(10_000_000, 10e6); got != 1 {
		t.Errorf("Duration(1e7 ticks @ 10 MHz) = %v s, want 1", got)
	}
	if got := TicksIn(0.01, 10e6); got != 100_000 {
		t.Errorf("TicksIn(0.01 s @ 10 MHz) = %v, want 100000", got)
	}
	// Truncation, not rounding: matches the int64 casts it replaced.
	if got := TicksIn(0.99999999e-6, 10e6); got != 9 {
		t.Errorf("TicksIn truncates: got %v, want 9", got)
	}
}

func TestGenericHelpers(t *testing.T) {
	if got := Abs(Radians(-0.5)); got != 0.5 {
		t.Errorf("Abs = %v", got)
	}
	if got := Scale(Decibels(3), 2); got != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := Div(Radians(1), 4); got != 0.25 {
		t.Errorf("Div = %v", got)
	}
	if got := Ratio(Meters(6), Meters(4)); got != 1.5 {
		t.Errorf("Ratio = %v", got)
	}
}
