package megamimo_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"megamimo"
	"megamimo/internal/channel"
	"megamimo/internal/mac"
	"megamimo/internal/phy"
)

// TestFullStackLifecycle drives one network through everything at once:
// decoupled measurement of a late-joining client, CSI quantization over
// the backbone feedback path, joint transmission with MAC scheduling and
// lead handover, channel aging, diversity rescue, and re-measurement.
func TestFullStackLifecycle(t *testing.T) {
	cfg := megamimo.DefaultConfig(3, 3, 18, 24)
	cfg.Seed = 202
	cfg.WellConditioned = true
	cfg.CSIQuantBits = 8
	net, err := megamimo.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: measure clients {0,1} first; client 2 joins 20 ms later
	// (§7 decoupled measurement).
	if err := net.MeasureDecoupled([][]int{{0, 1}, {2}}, 200000); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}

	// Phase 2: drain a queue through the MAC with per-packet lead
	// nomination and async ACKs.
	sched := mac.NewScheduler(net, 3)
	sched.FillQueue(4, 600, 5)
	st, err := sched.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeliveredPackets < 9 { // 12 queued; allow a few retries to fail
		t.Fatalf("MAC delivered only %d/12", st.DeliveredPackets)
	}
	if st.ThroughputBps(cfg.SampleRate) < 10e6 {
		t.Fatalf("throughput %.1f Mb/s implausibly low", st.ThroughputBps(cfg.SampleRate)/1e6)
	}

	// Phase 3: client 1 walks away (heavy aging), the system re-measures
	// and re-adapts, and every client flows again.
	net.EvolveClientLinks(1, channel.CoherenceRho(0.5, 0.25))
	if err := net.Measure(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Precode(cfg.NoiseVar); err != nil {
		t.Fatal(err)
	}
	mcs, ok, err := net.ProbeAndSelectRate(300)
	if err != nil || !ok {
		t.Fatalf("re-adaptation: %v %v", ok, err)
	}
	res, err := net.JointTransmit([][]byte{make([]byte, 600), make([]byte, 600), make([]byte, 600)}, mcs)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, okj := range res.OK {
		if okj {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatalf("post-aging recovery delivered %d/3", delivered)
	}

	// Phase 4: diversity mode still reaches a single client afterward.
	dres, err := net.DiversityTransmit(0, make([]byte, 600), phy.MCS2)
	if err != nil {
		t.Fatal(err)
	}
	if !dres.OK[0] {
		t.Fatal("diversity transmission failed after the full lifecycle")
	}
}

// TestExamplesRun builds the programs under examples/ and runs each one,
// requiring exit 0 and the line that shows it did its job.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir, "megamimo/examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct{ name, want string }{
		{"quickstart", `(?m)^client 1: delivered `},
		{"conference", `(?m)^ +8 +[0-9.]+ +[0-9.]+ +[0-9.]+x$`},
		{"dot11n", `(?m)^client 1 stream 1: delivered=true$`},
		{"mobility", `(?m)^ +-- re-measured, re-adapted to .* --$`},
		{"deadspot", `(?m)^8 APs: .* delivered `},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(dir, c.name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !regexp.MustCompile(c.want).Match(out) {
				t.Errorf("output lacks a line matching %s:\n%s", c.want, out)
			}
		})
	}
}
