// Package obs is the serving surface of the streaming telemetry
// pipeline: an HTTP server that exposes a running simulation's metrics
// (Prometheus text exposition), its online anomaly-gate verdict
// (/healthz), a live JSONL tail of the flight recorder (/trace), and the
// Go pprof handlers — so a long soak or chaos run can be watched and
// profiled while it runs instead of autopsied afterwards.
//
// The server splits cleanly from the single-threaded simulation: the sim
// goroutine pushes artifacts in (trace events via ConsumeTrace, rendered
// metrics via PublishMetrics) under the server's mutex, and HTTP handler
// goroutines only ever read published state. Nothing in the simulation's
// hot path waits on a request.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
	"megamimo/internal/tracefmt"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
	// Meta is the run's trace metadata: /trace stamps it on the tail and
	// the online monitor needs its rates for the cfo-mandate check.
	Meta tracefmt.Meta
	// Window is the monitor's sliding-window length
	// (0 = tracefmt.DefaultMonitorWindow).
	Window int
	// TraceTail bounds the /trace live tail ring (0 = 4096 events).
	TraceTail int
}

// Server serves the observability endpoints for one run.
type Server struct {
	mu      sync.Mutex
	meta    tracefmt.Meta
	monitor *tracefmt.Monitor
	tail    []core.TraceEvent
	tailCap int
	head    int
	prom    []byte
	done    bool
	ckPath  string
	ckAt    int64

	ln  net.Listener
	srv *http.Server
}

// New starts a server listening on cfg.Addr. Close stops it.
func New(cfg Config) (*Server, error) {
	window := cfg.Window
	if window <= 0 {
		window = tracefmt.DefaultMonitorWindow
	}
	tailCap := cfg.TraceTail
	if tailCap <= 0 {
		tailCap = 4096
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		meta:    cfg.Meta,
		monitor: tracefmt.NewMonitor(cfg.Meta, tracefmt.DefaultBudget(), window),
		tailCap: tailCap,
		ln:      ln,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go func() {
		// Serve returns ErrServerClosed on Close; nothing to do either way —
		// the sim outcome never depends on the observer.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP server.
func (s *Server) Close() error { return s.srv.Close() }

// ConsumeTrace implements core.TraceSink: every event feeds the online
// anomaly gate and the bounded /trace tail ring. Tee it with a streaming
// file sink to get both live verdicts and a full on-disk trace.
func (s *Server) ConsumeTrace(e core.TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.monitor.Observe(e)
	if len(s.tail) < s.tailCap {
		s.tail = append(s.tail, e)
		return
	}
	s.tail[s.head] = e
	s.head = (s.head + 1) % s.tailCap
}

// PublishMetrics renders the registry's Prometheus exposition and
// publishes it to /metrics. Call it from the goroutine that owns the
// registry (e.g. a metrics.Sampler OnSample hook); handlers serve the
// published bytes and never touch the registry itself.
func (s *Server) PublishMetrics(reg *metrics.Registry) error {
	var buf []byte
	w := &appendWriter{buf: &buf}
	if err := reg.WritePrometheus(w); err != nil {
		return err
	}
	s.mu.Lock()
	s.prom = buf
	s.mu.Unlock()
	return nil
}

// appendWriter collects writes into a byte slice.
type appendWriter struct{ buf *[]byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
}

// PublishCheckpoint records the run's latest durable checkpoint (path
// and the ether time it captured). /healthz reports both, plus the
// checkpoint's age against the last observed event — the bound on how
// much simulated time a resume would replay.
func (s *Server) PublishCheckpoint(path string, at int64) {
	s.mu.Lock()
	s.ckPath, s.ckAt = path, at
	s.mu.Unlock()
}

// MarkDone records that the run completed; /healthz reports it so
// pollers can distinguish "still going" from "finished".
func (s *Server) MarkDone() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// Healthy reports the online gate's verdict.
func (s *Server) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.monitor.Healthy()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := s.prom
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(body)
}

// violationJSON is one tripped check on the wire.
type violationJSON struct {
	Check  string `json:"check"`
	At     int64  `json:"at"`
	AP     int    `json:"ap"`
	Stream int    `json:"stream"`
	Msg    string `json:"msg"`
}

// healthJSON is the /healthz body.
type healthJSON struct {
	Healthy        bool            `json:"healthy"`
	Done           bool            `json:"done"`
	Events         int             `json:"events"`
	LastAt         int64           `json:"last_at"`
	FirstViolation *violationJSON  `json:"first_violation,omitempty"`
	Tripped        []violationJSON `json:"tripped,omitempty"`
	// LastCheckpoint is the newest durable checkpoint's path;
	// CheckpointAt its capture time and CheckpointAge how far the run has
	// advanced past it (ether samples).
	LastCheckpoint string `json:"last_checkpoint,omitempty"`
	CheckpointAt   int64  `json:"checkpoint_at,omitempty"`
	CheckpointAge  int64  `json:"checkpoint_age_samples,omitempty"`
}

func violationWire(v tracefmt.Violation) violationJSON {
	return violationJSON{
		Check:  v.Anomaly.Check,
		At:     v.At,
		AP:     v.Anomaly.AP,
		Stream: v.Anomaly.Stream,
		Msg:    v.Anomaly.Msg,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := healthJSON{
		Healthy: s.monitor.Healthy(),
		Done:    s.done,
		Events:  s.monitor.Events(),
		LastAt:  s.monitor.LastAt(),
	}
	if v, ok := s.monitor.FirstViolation(); ok {
		vw := violationWire(v)
		resp.FirstViolation = &vw
	}
	if s.ckPath != "" {
		resp.LastCheckpoint = s.ckPath
		resp.CheckpointAt = s.ckAt
		if last := s.monitor.LastAt(); last > s.ckAt {
			resp.CheckpointAge = last - s.ckAt
		}
	}
	for _, v := range s.monitor.Tripped() {
		resp.Tripped = append(resp.Tripped, violationWire(v))
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if !resp.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	events := make([]core.TraceEvent, 0, len(s.tail))
	events = append(events, s.tail[s.head:]...)
	events = append(events, s.tail[:s.head]...)
	meta := s.meta
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	line, err := tracefmt.MarshalHeader(meta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(line); err != nil {
		return
	}
	for i := range events {
		line, err := tracefmt.MarshalEvent(events[i])
		if err != nil {
			// The tracer validated the kind on entry; a failure here means
			// the tail was corrupted — truncate the stream.
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
	}
}

// String describes the serving surface for startup banners.
func (s *Server) String() string {
	return fmt.Sprintf("observability: http://%s (/metrics /healthz /trace /debug/pprof)", s.Addr())
}
