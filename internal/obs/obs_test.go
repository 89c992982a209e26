package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/metrics"
	"megamimo/internal/tracefmt"
)

// startServer boots a server on a loopback ephemeral port.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// get fetches a path from the test server.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthzCleanRun(t *testing.T) {
	s := startServer(t, Config{Meta: tracefmt.Meta{SampleRate: 10e6, CarrierHz: 2.437e9}})
	for i := 0; i < 20; i++ {
		s.ConsumeTrace(core.TraceEvent{Seq: int64(i), At: int64(i * 100), Kind: core.KindSlaveRatio,
			Attrs: core.TraceAttrs{AP: 1, PhaseErrRad: 0.01}})
	}
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("clean /healthz status %d: %s", code, body)
	}
	var h struct {
		Healthy bool `json:"healthy"`
		Done    bool `json:"done"`
		Events  int  `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Healthy || h.Done || h.Events != 20 {
		t.Fatalf("clean verdict %+v", h)
	}
	s.MarkDone()
	_, body = get(t, s, "/healthz")
	if !strings.Contains(body, `"done": true`) {
		t.Fatalf("done not reported: %s", body)
	}
}

func TestHealthzViolation(t *testing.T) {
	s := startServer(t, Config{Meta: tracefmt.Meta{SampleRate: 10e6, CarrierHz: 2.437e9}})
	for i := 0; i < 20; i++ {
		s.ConsumeTrace(core.TraceEvent{Seq: int64(i), At: int64(i * 100), Kind: core.KindSlaveRatio,
			Attrs: core.TraceAttrs{AP: 2, PhaseErrRad: 0.9}})
	}
	code, body := get(t, s, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("violating /healthz status %d, want 503: %s", code, body)
	}
	var h struct {
		Healthy        bool `json:"healthy"`
		FirstViolation *struct {
			Check string `json:"check"`
			At    int64  `json:"at"`
			AP    int    `json:"ap"`
		} `json:"first_violation"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Healthy || h.FirstViolation == nil {
		t.Fatalf("violation not surfaced: %s", body)
	}
	if h.FirstViolation.Check != "phase-budget" || h.FirstViolation.AP != 2 || h.FirstViolation.At <= 0 {
		t.Fatalf("first violation %+v", h.FirstViolation)
	}
	if s.Healthy() {
		t.Fatal("Healthy() disagrees with /healthz")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("unpublished /metrics = %d %q", code, body)
	}
	reg := metrics.NewRegistry()
	reg.Counter("core_joint_tx_total").Add(7)
	reg.Histogram("lat_ms", []float64{1, 10}).Observe(3)
	if err := s.PublishMetrics(reg); err != nil {
		t.Fatal(err)
	}
	code, body = get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE core_joint_tx_total counter",
		"core_joint_tx_total 7",
		`lat_ms_bucket{le="+Inf"} 1`,
		"lat_ms_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestTraceEndpoint checks /trace serves a parseable JSONL tail bounded
// by the ring, newest events retained.
func TestTraceEndpoint(t *testing.T) {
	meta := tracefmt.Meta{SampleRate: 10e6, CarrierHz: 2.437e9, APs: 2, Clients: 2}
	s := startServer(t, Config{Meta: meta})
	const fed = traceTail + 6
	for i := 0; i < fed; i++ {
		s.ConsumeTrace(core.TraceEvent{Seq: int64(i), At: int64(i), Kind: core.KindTraffic})
	}
	code, body := get(t, s, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	gotMeta, evs, err := tracefmt.ReadJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/trace output not a valid JSONL trace: %v\n%s", err, body)
	}
	if gotMeta != meta {
		t.Fatalf("/trace meta %+v, want %+v", gotMeta, meta)
	}
	if len(evs) != traceTail {
		t.Fatalf("/trace tail has %d events, want ring cap %d", len(evs), traceTail)
	}
	for i, e := range evs {
		if want := int64(fed - traceTail + i); e.Seq != want {
			t.Fatalf("/trace tail event %d has seq %d, want %d (the newest events in order)", i, e.Seq, want)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	s := startServer(t, Config{})
	code, body := get(t, s, "/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
}
