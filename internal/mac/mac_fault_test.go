package mac

import (
	"testing"

	"megamimo/internal/backend"
	"megamimo/internal/phy"
)

// dropAllPolicy loses every backbone message — total ACK loss from the
// scheduler's point of view.
type dropAllPolicy struct{}

func (dropAllPolicy) Deliver(backend.Message) (bool, int64) { return true, 0 }

// delayAllPolicy delays every backbone message by a fixed amount.
type delayAllPolicy struct{ extra int64 }

func (p delayAllPolicy) Deliver(backend.Message) (bool, int64) { return false, p.extra }

// TestAckLossFailsPacketsExactlyOnce: under 100% ACK loss every packet
// exhausts DefaultMaxAttempts, lands in Failed exactly once, and the failure and
// retransmission counters agree with the per-step results.
func TestAckLossFailsPacketsExactlyOnce(t *testing.T) {
	n := newNet(t, 2, 2, 60)
	s := NewScheduler(n, 3)
	s.MCS = phy.MCS0
	s.FillQueue(1, 300, 4) // one packet per stream
	n.Bus.SetFaultPolicy(dropAllPolicy{})

	failedBySeq := make(map[int64]int)
	delivered := 0
	for s.Queue.Len() > 0 {
		res, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		delivered += len(res.Delivered)
		for _, p := range res.Failed {
			failedBySeq[p.Seq]++
			if p.Attempts != DefaultMaxAttempts {
				t.Fatalf("packet %d failed after %d attempts, want %d", p.Seq, p.Attempts, DefaultMaxAttempts)
			}
		}
	}
	if delivered != 0 {
		t.Fatalf("%d packets delivered with every ACK dropped", delivered)
	}
	if len(failedBySeq) != 2 {
		t.Fatalf("%d distinct packets failed, want 2", len(failedBySeq))
	}
	for seq, times := range failedBySeq {
		if times != 1 {
			t.Fatalf("packet %d failed %d times, want exactly once", seq, times)
		}
	}
	m := n.Metrics()
	if got := m.Counter("mac_packets_failed_total").Value(); got != 2 {
		t.Fatalf("mac_packets_failed_total = %d, want 2", got)
	}
	if got := m.Counter("mac_packets_delivered_total").Value(); got != 0 {
		t.Fatalf("mac_packets_delivered_total = %d, want 0", got)
	}
	// Each packet burns DefaultMaxAttempts-1 requeues before the final failure.
	if got := m.Counter("mac_retransmissions_total").Value(); got != 2*int64(DefaultMaxAttempts-1) {
		t.Fatalf("mac_retransmissions_total = %d, want %d", got, 2*(DefaultMaxAttempts-1))
	}
}

// TestLateAckDeliversWithoutRetransmit: ACKs delayed past the ACK timeout
// resolve in a later round's drain — the packet delivers exactly once via
// the late-ACK path instead of burning attempts forever.
func TestLateAckDeliversWithoutRetransmit(t *testing.T) {
	n := newNet(t, 2, 2, 61)
	s := NewScheduler(n, 5)
	s.MCS = phy.MCS0
	// Delay every ACK well past the default timeout (one bus latency + 1)
	// but well inside the next round's service time.
	n.Bus.SetFaultPolicy(delayAllPolicy{extra: 3000})
	s.FillQueue(2, 300, 6) // two packets per stream
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeliveredPackets != 4 || st.FailedPackets != 0 {
		t.Fatalf("delivered %d failed %d, want 4/0", st.DeliveredPackets, st.FailedPackets)
	}
	m := n.Metrics()
	if got := m.Counter("mac_packets_delivered_total").Value(); got != 4 {
		t.Fatalf("mac_packets_delivered_total = %d, want 4 (no double delivery)", got)
	}
	// Every round's ACKs missed their own timeout, so each packet was
	// requeued at least once before its late ACK drained.
	if got := m.Counter("mac_retransmissions_total").Value(); got < 2 {
		t.Fatalf("mac_retransmissions_total = %d, want >= 2", got)
	}
}

// TestBackoffGrowsWithAttemptsAndCaps: binary exponential backoff doubles
// the window per failed attempt and saturates at CW × 2^6.
func TestBackoffGrowsWithAttemptsAndCaps(t *testing.T) {
	c := NewContention(10e6, 1)
	mean := func(attempt int) float64 {
		var sum int64
		const trials = 3000
		for i := 0; i < trials; i++ {
			sum += c.BackoffSamplesAttempt(1, attempt)
		}
		return float64(sum) / trials
	}
	m0, m3, m10 := mean(0), mean(3), mean(10)
	if m3 < 4*m0 {
		t.Fatalf("attempt 3 mean %v not ~8x attempt 0 mean %v", m3, m0)
	}
	if m10 < m3 {
		t.Fatalf("backoff shrank past the cap: attempt 10 mean %v < attempt 3 mean %v", m10, m3)
	}
	capSamples := int64((c.CWMinSlots << maxBackoffExp) * c.SlotSamples)
	for i := 0; i < 3000; i++ {
		if d := c.BackoffSamplesAttempt(1, 50); d > capSamples {
			t.Fatalf("draw %d exceeds the CWmax cap %d", d, capSamples)
		}
	}
}

// TestCrashedDesignatedAPFallsBack: a head packet whose designated AP has
// crashed must still be serviced — the scheduler falls back to the
// deterministic re-election order instead of erroring out.
func TestCrashedDesignatedAPFallsBack(t *testing.T) {
	n := newNet(t, 3, 3, 62)
	s := NewScheduler(n, 7)
	s.MCS = phy.MCS0
	s.FillQueue(1, 300, 8)
	// Force every queued packet's nominee to AP 2, then crash it.
	for _, j := range []int{0, 1, 2} {
		if p := s.Queue.NextForStream(j); p != nil {
			p.DesignatedAP = 2
		}
	}
	if err := n.CrashAP(2); err != nil {
		t.Fatal(err)
	}
	res, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if n.Lead().Index == 2 {
		t.Fatal("crashed AP elected lead")
	}
	if len(res.Delivered) == 0 {
		t.Fatal("nothing delivered after designated-AP fallback")
	}
}
