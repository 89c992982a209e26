package core

import (
	"testing"

	"megamimo/internal/channel"
	"megamimo/internal/rng"
)

// TestStaleChannelOnlyHurtsItsOwnClient verifies §9's loss decoupling:
// "if APs have stale channel information to a client, only the packet to
// that client is affected, and packets at other clients will still be
// received correctly."
func TestStaleChannelOnlyHurtsItsOwnClient(t *testing.T) {
	cfg := DefaultConfig(3, 3, 20, 25)
	cfg.Seed = 120
	cfg.WellConditioned = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}
	mcs, ok, err := n.ProbeAndSelectRate(300)
	if err != nil || !ok {
		t.Fatalf("rate: %v %v", ok, err)
	}

	// Decorrelate client 0's channels almost completely: its measurement
	// is now badly stale.
	n.EvolveClientLinks(0, 0.2)

	src := rng.New(9)
	staleOK, freshOK := 0, 0
	const trials = 6
	for i := 0; i < trials; i++ {
		payloads := [][]byte{
			src.Bytes(make([]byte, 400)),
			src.Bytes(make([]byte, 400)),
			src.Bytes(make([]byte, 400)),
		}
		res, err := n.JointTransmit(payloads, mcs)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK[0] {
			staleOK++
		}
		if res.OK[1] {
			freshOK++
		}
		if res.OK[2] {
			freshOK++
		}
	}
	// The stale client's own stream should be badly hurt...
	if staleOK > trials/2 {
		t.Fatalf("stale client still delivered %d/%d — channel aging ineffective?", staleOK, trials)
	}
	// ...while the other clients keep decoding: their own channels (and
	// the nulls protecting them, which live in the rows of H that are
	// still fresh) are unaffected.
	if freshOK < 2*trials-2 {
		t.Fatalf("fresh clients delivered only %d/%d — staleness leaked across clients", freshOK, 2*trials)
	}
}

// TestRemeasureRestoresStaleClient confirms a fresh measurement phase
// recovers the aged client.
func TestRemeasureRestoresStaleClient(t *testing.T) {
	cfg := DefaultConfig(2, 2, 20, 25)
	cfg.Seed = 121
	cfg.WellConditioned = true
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	n.EvolveClientLinks(0, 0.1)
	// Re-measure: the new snapshot sees the evolved channel.
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}
	mcs, ok, err := n.ProbeAndSelectRate(300)
	if err != nil || !ok {
		t.Fatalf("rate: %v %v", ok, err)
	}
	src := rng.New(10)
	delivered := 0
	for i := 0; i < 4; i++ {
		payloads := [][]byte{src.Bytes(make([]byte, 400)), src.Bytes(make([]byte, 400))}
		res, err := n.JointTransmit(payloads, mcs)
		if err != nil {
			t.Fatal(err)
		}
		if res.OK[0] {
			delivered++
		}
	}
	if delivered < 3 {
		t.Fatalf("re-measurement did not restore client 0: %d/4", delivered)
	}
}

// TestCoherenceRhoDrivesEvolution sanity-checks the aging hook against the
// channel package's coherence mapping.
func TestCoherenceRhoDrivesEvolution(t *testing.T) {
	cfg := DefaultConfig(2, 1, 20, 25)
	cfg.Seed = 122
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := n.Air.Link(n.APAntennaID(0, 0), n.ClientAntennaID(0, 0))
	before := append([]complex128(nil), l.Taps...)
	// ρ for 1 ms elapsed with a 250 ms coherence time ≈ 0.996: near freeze.
	n.EvolveClientLinks(0, channel.CoherenceRho(0.001, 0.25))
	var diff, ref float64
	for i := range before {
		d := l.Taps[i] - before[i]
		diff += real(d)*real(d) + imag(d)*imag(d)
		ref += real(before[i])*real(before[i]) + imag(before[i])*imag(before[i])
	}
	if diff/ref > 0.05 {
		t.Fatalf("1 ms of aging changed the channel by %.1f%%", 100*diff/ref)
	}
}
