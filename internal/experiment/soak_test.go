package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"megamimo/internal/air"
	"megamimo/internal/checkpoint"
)

// soakTestConfig is a small but non-trivial game-day cell: sustained
// load, a fault storm dense enough to be active across any checkpoint
// boundary, and frequent checkpoints/samples.
func soakTestConfig(t *testing.T) SoakConfig {
	t.Helper()
	return SoakConfig{
		APs: 3, Clients: 3,
		Seed:            7,
		LoadMbps:        12,
		PacketBytes:     200,
		Seconds:         0.03,
		FaultsPerSec:    400,
		SampleEvery:     4,
		CheckpointEvery: 8,
	}
}

// runSoakTo runs a soak writing its artifacts under dir, returning the
// result.
func runSoakTo(t *testing.T, cfg SoakConfig, dir string) *SoakResult {
	t.Helper()
	cfg.CheckpointDir = dir
	cfg.TracePath = filepath.Join(dir, "trace.jsonl")
	cfg.SeriesPath = filepath.Join(dir, "series.jsonl")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := RunSoak(cfg)
	if cfg.StopAfterRounds > 0 {
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted soak: got error %v, want ErrInterrupted", err)
		}
	} else if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	return res
}

// TestSoakResumeByteIdentity is the harness's core guarantee: interrupt a
// soak mid-run (with the fault storm live), resume from its last
// checkpoint, and the resumed trace/metrics tail must be byte-identical
// to the uninterrupted run — including when the interrupted and resumed
// halves run at different medium worker counts.
func TestSoakResumeByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers-1", 4: "workers-4"}[workers], func(t *testing.T) {
			base := soakTestConfig(t)
			root := t.TempDir()

			air.SetWorkers(1)
			defer air.SetWorkers(0)
			full := runSoakTo(t, base, filepath.Join(root, "full"))
			if full.Report == nil || full.Report.Rounds < 24 {
				t.Fatalf("soak too short to interrupt: %+v", full.Report)
			}
			if len(full.Checkpoints) < 2 {
				t.Fatalf("uninterrupted run wrote %d checkpoints, want >= 2", len(full.Checkpoints))
			}

			interrupted := base
			interrupted.StopAfterRounds = 2*base.CheckpointEvery + base.CheckpointEvery/2
			cut := runSoakTo(t, interrupted, filepath.Join(root, "cut"))
			if len(cut.Checkpoints) < 2 {
				t.Fatalf("interrupted run wrote %d checkpoints, want >= 2", len(cut.Checkpoints))
			}
			last := cut.Checkpoints[len(cut.Checkpoints)-1]
			st, _, err := checkpoint.ReadAny(last)
			if err != nil {
				t.Fatalf("ReadAny(%s): %v", last, err)
			}

			// The storm must still have events to replay after the cut,
			// or the "fault storm active across the boundary" claim is
			// vacuous for this seed.
			if st.Engine == nil || st.Engine.Injector == nil {
				t.Fatalf("checkpoint carries no injector state")
			}

			air.SetWorkers(workers)
			resumed := base
			resumed.Resume = last
			tail := runSoakTo(t, resumed, filepath.Join(root, "tail"))
			if tail.Report == nil {
				t.Fatalf("resumed run returned no report")
			}

			fullTrace := readFile(t, filepath.Join(root, "full", "trace.jsonl"))
			tailTrace := readFile(t, filepath.Join(root, "tail", "trace.jsonl"))
			if uint64(len(fullTrace)) != full.TraceBytes {
				t.Fatalf("uninterrupted trace is %d bytes on disk, counter says %d", len(fullTrace), full.TraceBytes)
			}
			if st.TraceBytes > uint64(len(fullTrace)) {
				t.Fatalf("checkpoint trace offset %d beyond uninterrupted trace (%d bytes)", st.TraceBytes, len(fullTrace))
			}
			if want := string(fullTrace[st.TraceBytes:]); want != string(tailTrace) {
				t.Fatalf("resumed trace tail diverges from uninterrupted run (want %d bytes, got %d)\nfirst diff near: %q",
					len(want), len(tailTrace), firstDiff(want, string(tailTrace)))
			}

			fullSeries := readFile(t, filepath.Join(root, "full", "series.jsonl"))
			tailSeries := readFile(t, filepath.Join(root, "tail", "series.jsonl"))
			if want := string(fullSeries[st.SeriesBytes:]); want != string(tailSeries) {
				t.Fatalf("resumed metrics series tail diverges (want %d bytes, got %d)\nfirst diff near: %q",
					len(want), len(tailSeries), firstDiff(want, string(tailSeries)))
			}

			// Latency/jitter accounting must also carry across the
			// boundary: the resumed run's final report is the
			// uninterrupted run's, percentile for percentile.
			if got, want := tail.Report.String(), full.Report.String(); got != want {
				t.Fatalf("resumed report diverges:\n--- uninterrupted\n%s\n--- resumed\n%s", want, got)
			}
		})
	}
}

// TestSoakResumeRejectsMismatchedConfig locks satellite #1: a checkpoint
// from one run identity must not restore into another.
func TestSoakResumeRejectsMismatchedConfig(t *testing.T) {
	base := soakTestConfig(t)
	root := t.TempDir()
	base.StopAfterRounds = base.CheckpointEvery
	cut := runSoakTo(t, base, filepath.Join(root, "cut"))
	if len(cut.Checkpoints) == 0 {
		t.Fatalf("no checkpoint written")
	}

	for _, mut := range []struct {
		name  string
		apply func(*SoakConfig)
	}{
		{"seed", func(c *SoakConfig) { c.Seed++ }},
		{"topology", func(c *SoakConfig) { c.APs++ }},
		{"load", func(c *SoakConfig) { c.LoadMbps *= 2 }},
	} {
		t.Run(mut.name, func(t *testing.T) {
			bad := base
			bad.StopAfterRounds = 0
			bad.Resume = cut.Checkpoints[len(cut.Checkpoints)-1]
			mut.apply(&bad)
			_, err := RunSoak(bad)
			if err == nil {
				t.Fatalf("resume under mutated %s config succeeded, want rejection", mut.name)
			}
			if !strings.Contains(err.Error(), "config mismatch") {
				t.Fatalf("rejection error %q does not name the config mismatch", err)
			}
		})
	}
}

// TestSoakIdentityCoversEveryField pins the digest's coverage: setting
// any SoakConfig field changes IdentityJSON exactly when the field is not
// tagged json:"-", and the excluded fields are exactly the ones that say
// where artifacts land or how the run is driven. A field added later
// joins the digest unless it is excluded on purpose.
func TestSoakIdentityCoversEveryField(t *testing.T) {
	wantExcluded := map[string]bool{
		"CheckpointDir": true, "Resume": true, "TracePath": true,
		"SeriesPath": true, "Server": true, "StopAfterRounds": true,
	}
	base, err := SoakConfig{}.IdentityJSON()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(SoakConfig{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var c SoakConfig
		v := reflect.ValueOf(&c).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(97)
		case reflect.Float64:
			v.SetFloat(0.125)
		case reflect.String:
			v.SetString("nonzero")
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		default:
			t.Fatalf("field %s has kind %s; extend this test", f.Name, v.Kind())
		}
		got, err := c.IdentityJSON()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		excluded := f.Tag.Get("json") == "-"
		if changed := string(got) != string(base); changed == excluded {
			t.Errorf("field %s (json:%q): identity changed=%v", f.Name, f.Tag.Get("json"), changed)
		}
		if excluded != wantExcluded[f.Name] {
			t.Errorf("field %s excluded from the identity = %v, want %v", f.Name, excluded, wantExcluded[f.Name])
		}
	}
}

// TestSoakIdentityJSON pins the identity bytes, and with them every
// existing checkpoint's config digest: same keys, same order.
func TestSoakIdentityJSON(t *testing.T) {
	c := soakTestConfig(t)
	c.DriftPPM, c.DriftAtSeconds = 21, 0.03
	c.CheckpointDir, c.TracePath = "ckpt", "trace.jsonl"
	got, err := c.IdentityJSON()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"aps":3,"clients":3,"snr_lo_db":18,"snr_hi_db":24,"seed":7,"load_mbps":12,"packet_bytes":200,"seconds":0.03,"faults_per_sec":400,"sample_every":4,"checkpoint_every":8,"drift_ppm":21,"drift_at_seconds":0.03}`
	if string(got) != want {
		t.Fatalf("IdentityJSON:\n got %s\nwant %s", got, want)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDiff returns a short window around the first differing byte.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			if hi > n {
				hi = n
			}
			return a[lo:hi] + " != " + b[lo:hi]
		}
	}
	return "length mismatch"
}
