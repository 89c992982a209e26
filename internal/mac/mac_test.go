package mac

import (
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/phy"
)

func newNet(t *testing.T, nAPs, nClients int, seed int64) *core.Network {
	t.Helper()
	cfg := core.DefaultConfig(nAPs, nClients, 20, 25)
	cfg.Seed = seed
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestQueueSemantics(t *testing.T) {
	var q Queue
	a := &Packet{Stream: 0}
	b := &Packet{Stream: 1}
	c := &Packet{Stream: 0}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Head() != a || q.Len() != 3 {
		t.Fatal("head/len wrong")
	}
	if q.NextForStream(1) != b {
		t.Fatal("NextForStream wrong")
	}
	q.Requeue(a)
	if q.Head() != b || q.packets[2] != a {
		t.Fatal("Requeue order wrong")
	}
	q.Remove(b)
	if q.Len() != 2 || q.NextForStream(1) != nil {
		t.Fatal("Remove failed")
	}
}

func TestContentionWindowShrinksWithAggregation(t *testing.T) {
	c := NewContention(10e6, 1)
	if c.SlotSamples != 90 {
		t.Fatalf("slot = %d samples", c.SlotSamples)
	}
	var lone, joint int64
	for i := 0; i < 2000; i++ {
		lone += c.BackoffSamples(1)
		joint += c.BackoffSamples(8)
	}
	if joint >= lone {
		t.Fatalf("aggregated backoff %d not smaller than lone %d", joint, lone)
	}
	if c.BackoffSamples(0) < 0 {
		t.Fatal("negative backoff")
	}
}

func TestSchedulerDrainsQueue(t *testing.T) {
	n := newNet(t, 2, 2, 50)
	s := NewScheduler(n, 1)
	s.FillQueue(3, 400, 2) // 3 packets × 2 streams
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Queue.Len() != 0 {
		t.Fatalf("queue not drained: %d left", s.Queue.Len())
	}
	if st.DeliveredPackets+st.FailedPackets != 6 {
		t.Fatalf("accounting: %d delivered + %d failed != 6", st.DeliveredPackets, st.FailedPackets)
	}
	if st.DeliveredPackets < 5 {
		t.Fatalf("only %d/6 delivered at 20-25 dB", st.DeliveredPackets)
	}
	if st.AirtimeSamples <= 0 || st.Transmissions == 0 {
		t.Fatal("airtime/transmissions not accounted")
	}
	if st.ThroughputBps(10e6) <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestSchedulerRetransmitsAndGivesUp(t *testing.T) {
	// At a pinned absurd rate over weak links, packets exhaust attempts.
	cfg := core.DefaultConfig(2, 2, 5, 7)
	cfg.Seed = 51
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(n, 2)
	s.MCS = phy.MCS7 // 64-QAM 3/4 over ~6 dB links: hopeless
	s.FillQueue(1, 300, 3)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedPackets == 0 {
		t.Fatal("expected failures at MCS7 over 5-7 dB links")
	}
	if s.Queue.Len() != 0 {
		t.Fatal("queue should drain via DefaultMaxAttempts")
	}
}

func TestSchedulerFairnessAcrossStreams(t *testing.T) {
	n := newNet(t, 3, 3, 52)
	s := NewScheduler(n, 3)
	s.FillQueue(4, 300, 4)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PerStreamBits) == 0 {
		t.Fatal("no per-stream accounting")
	}
	for j := 0; j < 3; j++ {
		if st.PerStreamBits[j] == 0 {
			t.Fatalf("stream %d starved", j)
		}
	}
}
