package geom

import (
	"megamimo/internal/units"
	"testing"

	"megamimo/internal/rng"
)

func TestDistance(t *testing.T) {
	a := Point{0, 0, 0}
	b := Point{3, 4, 0}
	if got := a.Distance(b); units.Abs(got-5) > 1e-12 {
		t.Fatalf("Distance = %v", got)
	}
	c := Point{1, 1, 1}
	if got := c.Distance(c); got != 0 {
		t.Fatalf("self distance %v", got)
	}
}

func TestLossDBMonotonicInDistance(t *testing.T) {
	pl := DefaultIndoor
	prev := units.Decibels(-1)
	for d := units.Meters(0.5); d < 30; d += 0.5 {
		l := pl.LossDB(d, 0)
		if l <= prev {
			t.Fatalf("loss not monotonic at %v m", d)
		}
		prev = l
	}
	// Clamp below 10 cm.
	if pl.LossDB(0.01, 0) != pl.LossDB(0.1, 0) {
		t.Fatal("sub-10cm distance not clamped")
	}
}

func TestLossDBFreeSpaceSlope(t *testing.T) {
	pl := PathLoss{RefLossDB: 40, Exponent: 2}
	// Doubling distance at exponent 2 adds ~6.02 dB.
	d1 := pl.LossDB(4, 0) - pl.LossDB(2, 0)
	if units.Abs(d1-6.0206) > 0.01 {
		t.Fatalf("slope %v dB per octave", d1)
	}
}

func TestAPLocationsOnPerimeter(t *testing.T) {
	r := ConferenceRoom
	pts := r.APLocations(10)
	if len(pts) != 10 {
		t.Fatalf("%d locations", len(pts))
	}
	for i, p := range pts {
		onEdge := p.X == 0 || p.Y == 0 || units.Abs(p.X-r.Width) < 1e-9 || units.Abs(p.Y-r.Length) < 1e-9
		if !onEdge {
			t.Fatalf("AP %d at %+v not on perimeter", i, p)
		}
		if p.Z != r.LedgeHeight {
			t.Fatalf("AP %d not at ledge height", i)
		}
		if p.X < -1e-9 || p.X > r.Width+1e-9 || p.Y < -1e-9 || p.Y > r.Length+1e-9 {
			t.Fatalf("AP %d outside room: %+v", i, p)
		}
	}
	// Distinct positions.
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Distance(pts[j]) < 0.5 {
				t.Fatalf("APs %d,%d nearly collocated", i, j)
			}
		}
	}
}

func TestRandomClientLocationInBounds(t *testing.T) {
	src := rng.New(1)
	r := ConferenceRoom
	for i := 0; i < 500; i++ {
		p := r.RandomClientLocation(src)
		if p.X < 1 || p.X > r.Width-1 || p.Y < 1 || p.Y > r.Length-1 {
			t.Fatalf("client outside margin: %+v", p)
		}
		if p.Z != r.ClientHeight {
			t.Fatalf("client at height %v", p.Z)
		}
	}
}

func TestSampleTopologyShape(t *testing.T) {
	src := rng.New(2)
	top := SampleTopology(src, ConferenceRoom, DefaultIndoor, 6, 6)
	if len(top.APs) != 6 || len(top.Clients) != 6 {
		t.Fatalf("topology %d APs %d clients", len(top.APs), len(top.Clients))
	}
	if len(top.ShadowDB) != 6 || len(top.ShadowDB[0]) != 6 {
		t.Fatal("shadowing matrix misshaped")
	}
}

func TestLinkBudgetPlausible(t *testing.T) {
	src := rng.New(3)
	top := SampleTopology(src, ConferenceRoom, DefaultIndoor, 4, 4)
	for c := range top.Clients {
		for a := range top.APs {
			snr := top.SNRdB(DefaultIndoor, c, a, 20, -95)
			// In a 20 m room with 20 dBm TX: plausible indoor SNR range.
			if snr < 10 || snr > 90 {
				t.Fatalf("client %d ← AP %d SNR %v dB implausible", c, a, snr)
			}
		}
	}
}

func TestTopologyMap(t *testing.T) {
	src := rng.New(5)
	top := SampleTopology(src, ConferenceRoom, DefaultIndoor, 4, 3)
	m := top.Map(ConferenceRoom, 40, 12)
	var aps, cls int
	for _, ch := range m {
		switch ch {
		case 'A':
			aps++
		case 'c':
			cls++
		}
	}
	if aps == 0 || cls == 0 {
		t.Fatalf("map missing nodes:\n%s", m)
	}
	if aps > 4 || cls > 3 {
		t.Fatalf("too many markers (%d APs, %d clients)", aps, cls)
	}
	// Degenerate sizes clamp instead of panicking.
	if small := top.Map(ConferenceRoom, 1, 1); small == "" {
		t.Fatal("tiny map empty")
	}
}
