// Package mac implements MegaMIMO's link layer (§9): the shared downlink
// queue distributed to every AP over the backbone, designated-AP
// bookkeeping, lead contention with a weighted contention window,
// joint-transmission grouping, asynchronous acknowledgments and
// retransmissions, plus the TDMA round-robin scheduler used to model the
// 802.11 baseline's equal medium share.
package mac

import (
	"fmt"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
	"megamimo/internal/phy"
	"megamimo/internal/rng"
	"megamimo/internal/units"
)

// Packet is one downlink MAC frame.
type Packet struct {
	// Stream is the destination stream (client antenna) index.
	Stream int
	// Payload is the MSDU.
	Payload []byte
	// DesignatedAP is the AP with the strongest link to the destination
	// (§9: every packet has one; the head packet's designated AP leads).
	DesignatedAP int
	// Attempts counts transmissions so far.
	Attempts int
	// Delivered is set once an acknowledgment arrives.
	Delivered bool
	// EnqueuedAt is the ether sample time the packet entered the shared
	// queue; the traffic layer derives per-packet latency from it.
	EnqueuedAt int64
	// Seq is the queue-assigned packet sequence number (1-based, assigned
	// on first Push and stable across requeues) — the flight recorder's
	// packet identity.
	Seq int64
}

// Queue is the shared downlink queue. Every AP sees the same queue because
// every payload rides the Ethernet backbone to every AP.
type Queue struct {
	packets []*Packet
	nextSeq int64
}

// Push appends a packet, assigning its sequence number on first entry.
func (q *Queue) Push(p *Packet) {
	if p.Seq == 0 {
		q.nextSeq++
		p.Seq = q.nextSeq
	}
	q.packets = append(q.packets, p)
}

// Len returns the queue length.
func (q *Queue) Len() int { return len(q.packets) }

// Head returns the head-of-line packet or nil.
func (q *Queue) Head() *Packet {
	if len(q.packets) == 0 {
		return nil
	}
	return q.packets[0]
}

// NextForStream returns the first queued packet for the given stream, or
// nil.
func (q *Queue) NextForStream(stream int) *Packet {
	for _, p := range q.packets {
		if p.Stream == stream {
			return p
		}
	}
	return nil
}

// Remove deletes a specific packet (after its async ACK).
func (q *Queue) Remove(p *Packet) {
	for i, x := range q.packets {
		if x == p {
			q.packets = append(q.packets[:i], q.packets[i+1:]...)
			return
		}
	}
}

// Requeue moves a packet to the back after a failed attempt, keeping it
// eligible for future joint transmissions ("if a packet is not ACKed ...
// combined with other packets in the queue for future concurrent
// transmissions").
func (q *Queue) Requeue(p *Packet) {
	q.Remove(p)
	q.packets = append(q.packets, p)
}

// BySeq returns the queued packet with the given sequence number, or nil.
// The late-ACK path uses it to resolve an acknowledgment that drained
// after its round's ACK timeout.
func (q *Queue) BySeq(seq int64) *Packet {
	for _, p := range q.packets {
		if p.Seq == seq {
			return p
		}
	}
	return nil
}

// DropStream removes and returns every queued packet for a stream (a
// departed client: its demand leaves the shared queue with it).
func (q *Queue) DropStream(stream int) []*Packet {
	var dropped []*Packet
	kept := q.packets[:0]
	for _, p := range q.packets {
		if p.Stream == stream {
			dropped = append(dropped, p)
			continue
		}
		kept = append(kept, p)
	}
	q.packets = kept
	return dropped
}

// Contention models the lead AP's CSMA access: the lead contends on behalf
// of all slaves with its contention window weighted by the number of
// packets in the joint transmission (§9, following [29]).
type Contention struct {
	// CWMinSlots is the base contention window in slots.
	CWMinSlots int
	// SlotSamples is the slot duration in ether samples (9 µs × rate).
	SlotSamples int
	src         *rng.Source
}

// NewContention builds the contention model for the given sample rate.
func NewContention(sampleRate units.Hertz, seed int64) *Contention {
	return &Contention{
		CWMinSlots:  15,
		SlotSamples: int(units.TicksIn(9e-6, sampleRate)),
		src:         rng.New(seed),
	}
}

// BackoffSamples draws the backoff airtime for a joint transmission
// carrying nPackets frames: the window shrinks ∝ 1/nPackets so a joint
// transmission delivering N packets contends like N queued stations.
func (c *Contention) BackoffSamples(nPackets int) int64 {
	return c.BackoffSamplesAttempt(nPackets, 0)
}

// maxBackoffExp caps the exponential backoff at CW × 2⁶ (802.11's
// CWmax/CWmin ratio for CWmin 15, CWmax 1023).
const maxBackoffExp = 6

// BackoffSamplesAttempt draws the backoff airtime for a retry round: the
// window starts at CWMinSlots/nPackets and doubles for every prior failed
// attempt of the head packet, capped at 2^maxBackoffExp — binary
// exponential backoff carried over to the joint queue, so a lossy ACK
// path (faulty backend) spaces retries out instead of hammering the
// medium. Attempt 0 is identical to BackoffSamples.
func (c *Contention) BackoffSamplesAttempt(nPackets, attempt int) int64 {
	if nPackets < 1 {
		nPackets = 1
	}
	w := c.CWMinSlots / nPackets
	if w < 1 {
		w = 1
	}
	if attempt > 0 {
		e := attempt
		if e > maxBackoffExp {
			e = maxBackoffExp
		}
		w <<= uint(e)
	}
	return int64(c.src.Intn(w+1) * c.SlotSamples)
}

// Scheduler drives a core.Network from the shared queue.
type Scheduler struct {
	Net   *core.Network
	Queue Queue
	Cont  *Contention
	// MCS overrides rate adaptation when ≥ 0.
	MCS phy.MCS

	adapted   phy.MCS
	adaptedOK bool

	// Boundary telemetry, resolved once from the network registry.
	mRetx      *metrics.Counter
	mDelivered *metrics.Counter
	mFailed    *metrics.Counter
	qDepth     *metrics.Histogram
}

// DefaultMaxAttempts is the per-packet transmission bound: a packet that
// goes unACKed this many times leaves the queue as failed. The 802.11
// baseline's TDMA service uses the same bound.
const DefaultMaxAttempts = 4

// NewScheduler wires a scheduler to a network whose measurement phase has
// already run.
func NewScheduler(net *core.Network, seed int64) *Scheduler {
	m := net.Metrics()
	return &Scheduler{
		Net:        net,
		Cont:       NewContention(net.Cfg.SampleRate, seed),
		MCS:        -1,
		mRetx:      m.Counter("mac_retransmissions_total"),
		mDelivered: m.Counter("mac_packets_delivered_total"),
		mFailed:    m.Counter("mac_packets_failed_total"),
		qDepth:     m.Histogram("mac_queue_depth", QueueDepthBuckets()),
	}
}

// QueueDepthBuckets returns the shared queue-occupancy histogram bounds
// (powers of two up to 512 packets).
func QueueDepthBuckets() []float64 {
	return []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
}

// Stats accumulates scheduler outcomes.
type Stats struct {
	DeliveredPackets int
	DeliveredBits    float64
	FailedPackets    int
	Transmissions    int
	AirtimeSamples   int64
	// PerStreamBits tracks goodput per stream for fairness analysis.
	PerStreamBits map[int]float64
}

// ThroughputBps returns delivered goodput over total airtime.
func (s *Stats) ThroughputBps(sampleRate units.Hertz) float64 {
	if s.AirtimeSamples == 0 {
		return 0
	}
	return s.DeliveredBits / units.Duration(units.Ticks(s.AirtimeSamples), sampleRate)
}

// EnsureRate resolves the MCS the scheduler transmits at: the pinned MCS
// when set, otherwise one probe transmission adapts it (cached across
// calls).
func (s *Scheduler) EnsureRate() error {
	if s.MCS >= 0 {
		s.adapted, s.adaptedOK = s.MCS, true
		return nil
	}
	if s.adaptedOK {
		return nil
	}
	mcs, ok, err := s.Net.ProbeAndSelectRate(256)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("mac: no deliverable rate")
	}
	s.adapted, s.adaptedOK = mcs, true
	return nil
}

// StepResult reports one joint-transmission service round.
type StepResult struct {
	// Delivered packets were ACKed this round; Failed exhausted their
	// attempts; Requeued stay in the queue for future joint
	// transmissions.
	Delivered, Failed, Requeued []*Packet
	// AirtimeSamples covers the contention backoff, sync header and
	// frame for this round.
	AirtimeSamples int64
	// DeliveredAt is the ether time the lead read the ACKs — the
	// per-packet delivery timestamp the traffic layer's latency
	// accounting uses.
	DeliveredAt int64
}

// Step performs one service round: group the head-of-line packet with one
// queued same-size packet per other stream, joint-transmit, collect the
// asynchronous ACKs off the backbone, and update the shared queue. A
// closed-loop workload calls Step between arrival pumps; Run loops it to
// drain a batch. An empty queue is a no-op.
func (s *Scheduler) Step() (*StepResult, error) {
	res := &StepResult{DeliveredAt: s.Net.Now()}
	if s.Queue.Len() == 0 {
		return res, nil
	}
	if err := s.EnsureRate(); err != nil {
		return nil, err
	}
	streams := s.Net.NumStreams()
	// Group: head packet plus one queued packet per other stream.
	head := s.Queue.Head()
	group := make([]*Packet, streams)
	group[head.Stream] = head
	size := len(head.Payload)
	for j := 0; j < streams; j++ {
		if j == head.Stream {
			continue
		}
		if p := s.Queue.NextForStream(j); p != nil && len(p.Payload) == size {
			group[j] = p
		}
	}
	payloads := make([][]byte, streams)
	nPkts := 0
	for j, p := range group {
		if p != nil {
			payloads[j] = p.Payload
			nPkts++
		}
	}
	// §9: the head packet's designated AP is nominated lead for this
	// transmission (every AP holds sync state toward every potential
	// lead from the measurement phase); a crashed nominee falls back to
	// the deterministic re-election order.
	lead := s.Net.ElectLead(head.DesignatedAP)
	if err := s.Net.SetLead(lead); err != nil {
		return nil, fmt.Errorf("mac: set lead %d: %w", lead, err)
	}
	res.AirtimeSamples += s.Cont.BackoffSamplesAttempt(nPkts, head.Attempts)
	tr := s.Net.Trace()
	span := tr.BeginSpan(s.Net.Now(), core.KindRound,
		core.TraceAttrs{AP: lead, Pkt: head.Seq, QueueDepth: s.Queue.Len()},
		"%d packets grouped", nPkts)
	txr, err := s.Net.JointTransmit(payloads, s.adapted)
	if err != nil {
		tr.EndSpanAttrs(span, s.Net.Now(), core.TraceAttrs{Cause: "joint-tx"}, "%v", err)
		return nil, err
	}
	res.AirtimeSamples += txr.AirtimeSamples

	// Asynchronous acknowledgments (§9, after MRD/ZipTx): each client
	// that decoded its frame posts an ACK on the backbone; the lead
	// reads them after the backbone latency and updates the shared
	// queue. Frames without an ACK stay queued for future joint
	// transmissions.
	ackAt := s.Net.Now()
	for j, okj := range txr.OK {
		if okj && group[j] != nil {
			s.Net.Bus.Send(1000+j/s.Net.Cfg.AntennasPerClient, lead, ackAt, Ack{Stream: j, Pkt: group[j].Seq})
		}
	}
	// The lead waits one bus latency plus a sample: exactly enough on a
	// healthy backend; an ACK the fault layer delays beyond it surfaces as
	// a late ACK in a later round's drain.
	s.Net.AdvanceTime(s.Net.Bus.LatencySamples + 1)
	acked := make(map[int64]bool)
	var ackSeqs []int64 // arrival order, for the deterministic late-ACK pass
	for _, m := range s.Net.Bus.Receive(lead, s.Net.Now()) {
		if a, ok := m.Payload.(Ack); ok && !acked[a.Pkt] {
			acked[a.Pkt] = true
			ackSeqs = append(ackSeqs, a.Pkt)
		}
	}
	res.DeliveredAt = s.Net.Now()
	var deliveredBits int64
	inGroup := make(map[int64]bool, nPkts)
	for j, p := range group {
		if p == nil {
			continue
		}
		inGroup[p.Seq] = true
		p.Attempts++
		if acked[p.Seq] {
			p.Delivered = true
			s.Queue.Remove(p)
			res.Delivered = append(res.Delivered, p)
			s.mDelivered.Inc()
			deliveredBits += int64(8 * len(p.Payload))
		} else if p.Attempts >= DefaultMaxAttempts {
			s.Queue.Remove(p)
			res.Failed = append(res.Failed, p)
			s.mFailed.Inc()
			tr.Emit(res.DeliveredAt, core.KindRetransmit,
				core.TraceAttrs{Stream: j, Pkt: p.Seq, Cause: "max-attempts"},
				"stream %d packet dropped after %d attempts", j, p.Attempts)
		} else {
			s.Queue.Requeue(p)
			res.Requeued = append(res.Requeued, p)
			s.mRetx.Inc()
			tr.Emit(res.DeliveredAt, core.KindRetransmit,
				core.TraceAttrs{Stream: j, Pkt: p.Seq, Cause: "no-ack"},
				"stream %d attempt %d not ACKed", j, p.Attempts)
		}
	}
	// Late ACKs: an acknowledgment the backend delayed beyond the ACK
	// timeout drains in a later round. The packet it names was requeued
	// back then; deliver it now instead of burning another transmission.
	for _, seq := range ackSeqs {
		if inGroup[seq] {
			continue
		}
		p := s.Queue.BySeq(seq)
		if p == nil || p.Delivered {
			continue
		}
		p.Delivered = true
		s.Queue.Remove(p)
		res.Delivered = append(res.Delivered, p)
		s.mDelivered.Inc()
		deliveredBits += int64(8 * len(p.Payload))
	}
	s.qDepth.Observe(float64(s.Queue.Len()))
	tr.EndSpanAttrs(span, s.Net.Now(),
		core.TraceAttrs{QueueDepth: s.Queue.Len(), Bits: deliveredBits, OK: len(res.Failed) == 0},
		"%d delivered, %d requeued, %d failed", len(res.Delivered), len(res.Requeued), len(res.Failed))
	return res, nil
}

// Run drains the queue with joint transmissions until it is empty or every
// remaining packet has exhausted its attempts. Rate comes from one probe
// unless MCS pins it.
func (s *Scheduler) Run() (*Stats, error) {
	st := &Stats{PerStreamBits: make(map[int]float64)}
	if err := s.EnsureRate(); err != nil {
		return nil, err
	}
	for s.Queue.Len() > 0 {
		res, err := s.Step()
		if err != nil {
			return nil, err
		}
		st.Transmissions++
		st.AirtimeSamples += res.AirtimeSamples
		for _, p := range res.Delivered {
			st.DeliveredPackets++
			bits := float64(8 * len(p.Payload))
			st.DeliveredBits += bits
			st.PerStreamBits[p.Stream] += bits
		}
		st.FailedPackets += len(res.Failed)
	}
	return st, nil
}

// Ack is the backbone acknowledgment datagram; Pkt names the acknowledged
// packet so a delayed ACK still resolves after the stream has moved on.
// Exported so the checkpoint layer can serialize ACKs still in flight on
// the bus when a snapshot is taken.
type Ack struct {
	Stream int
	Pkt    int64
}

// FillQueue enqueues count packets of size bytes per stream, round-robin,
// with designated APs assigned (the strongest measured link).
func (s *Scheduler) FillQueue(count, size int, seed int64) {
	src := rng.New(seed)
	streams := s.Net.NumStreams()
	for i := 0; i < count; i++ {
		for j := 0; j < streams; j++ {
			s.Queue.Push(&Packet{
				Stream:       j,
				Payload:      src.Bytes(make([]byte, size)),
				DesignatedAP: s.Net.StrongestAP(j),
				EnqueuedAt:   s.Net.Now(),
			})
		}
	}
}
