package checkpoint

import (
	"encoding/json"
	"fmt"

	"megamimo/internal/backend"
	"megamimo/internal/core"
	"megamimo/internal/mac"
	"megamimo/internal/metrics"
	"megamimo/internal/traffic"
)

// busMsgWire is one in-flight backbone message. The payload is encoded by
// kind: the only payload type alive during a traffic run is the MAC ACK.
type busMsgWire struct {
	From   int      `json:"from"`
	To     int      `json:"to"`
	SentAt int64    `json:"sent_at"`
	Seq    uint64   `json:"seq"`
	Delay  int64    `json:"delay,omitempty"`
	Kind   string   `json:"kind"`
	Ack    *mac.Ack `json:"ack,omitempty"`
}

// busWire is the backbone queue state.
type busWire struct {
	Seq     uint64       `json:"seq"`
	Pending []busMsgWire `json:"pending,omitempty"`
}

// State is the complete checkpoint payload: everything that must be
// overwritten onto a deterministically rebuilt simulation to continue it
// bit-for-bit. Config is the run's canonical config JSON, embedded by
// Write for mismatch diagnostics.
type State struct {
	Now    int64 `json:"now"`
	Rounds int   `json:"rounds"`
	// TraceBytes/SeriesBytes are the logical byte counts of the trace and
	// metrics-series streams at capture time — the offsets a resumed run's
	// tail files splice onto.
	TraceBytes  uint64 `json:"trace_bytes"`
	SeriesBytes uint64 `json:"series_bytes"`

	Net     core.NetworkState     `json:"net"`
	Engine  *traffic.EngineState  `json:"engine"`
	Bus     busWire               `json:"bus"`
	Metrics metrics.RegistryState `json:"metrics"`
	Config  json.RawMessage       `json:"config,omitempty"`
}

// Capture snapshots a quiescent (between service rounds) simulation.
// traceBytes/seriesBytes are the harness's logical stream positions.
func Capture(net *core.Network, eng *traffic.Engine, traceBytes, seriesBytes uint64) (*State, error) {
	ns, err := net.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	seq, pending := net.Bus.Snapshot()
	bus, err := encodeBus(seq, pending)
	if err != nil {
		return nil, err
	}
	es := eng.Snapshot()
	return &State{
		Now:         ns.Now,
		Rounds:      es.Rounds,
		TraceBytes:  traceBytes,
		SeriesBytes: seriesBytes,
		Net:         *ns,
		Engine:      es,
		Bus:         bus,
		Metrics:     net.Metrics().Snapshot(),
	}, nil
}

// Restore overwrites a freshly rebuilt simulation with the checkpointed
// state. The network must have been rebuilt along the identical path the
// checkpointed run took (core.New + Measure + Precode + traffic.New +
// Prepare, same config and seed — Read's digest check guards this), and
// sinks must be attached only AFTER Restore so rebuild-time events never
// leak into the resumed stream. Order matters inside: the bus queue is
// reinstated after the network replays crash detachments, and the metrics
// registry is restored last so every increment the rebuild itself made is
// wiped back to the captured totals.
func (st *State) Restore(net *core.Network, eng *traffic.Engine) error {
	if err := net.RestoreSnapshot(&st.Net); err != nil {
		return err
	}
	if eng != nil {
		if st.Engine == nil {
			return fmt.Errorf("checkpoint: payload has no engine state")
		}
		if err := eng.RestoreSnapshot(st.Engine); err != nil {
			return err
		}
	}
	seq, pending, err := decodeBus(st.Bus)
	if err != nil {
		return err
	}
	net.Bus.RestoreSnapshot(seq, pending)
	if err := net.Metrics().RestoreSnapshot(st.Metrics); err != nil {
		return err
	}
	return nil
}

// encodeBus rewrites the backbone queue, typing each in-flight payload.
// An unrecognized payload type fails the capture loudly rather than
// writing a checkpoint that cannot faithfully resume.
func encodeBus(seq uint64, pending []backend.Message) (busWire, error) {
	w := busWire{Seq: seq}
	for _, m := range pending {
		mw := busMsgWire{From: m.From, To: m.To, SentAt: m.SentAt, Seq: m.Seq, Delay: m.Delay}
		switch p := m.Payload.(type) {
		case mac.Ack:
			mw.Kind = "mac-ack"
			ack := p
			mw.Ack = &ack
		default:
			return busWire{}, fmt.Errorf("checkpoint: in-flight bus message %d carries unserializable payload %T", m.Seq, m.Payload)
		}
		w.Pending = append(w.Pending, mw)
	}
	return w, nil
}

// decodeBus rebuilds the backbone queue.
func decodeBus(w busWire) (uint64, []backend.Message, error) {
	pending := make([]backend.Message, 0, len(w.Pending))
	for _, mw := range w.Pending {
		m := backend.Message{From: mw.From, To: mw.To, SentAt: mw.SentAt, Seq: mw.Seq, Delay: mw.Delay}
		switch mw.Kind {
		case "mac-ack":
			if mw.Ack == nil {
				return 0, nil, fmt.Errorf("checkpoint: bus message %d is a mac-ack with no ack body", mw.Seq)
			}
			m.Payload = *mw.Ack
		default:
			return 0, nil, fmt.Errorf("checkpoint: bus message %d has unknown payload kind %q", mw.Seq, mw.Kind)
		}
		pending = append(pending, m)
	}
	return w.Seq, pending, nil
}
