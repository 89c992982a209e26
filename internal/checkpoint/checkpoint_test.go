package checkpoint

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

func writeTestCheckpoint(t *testing.T, cfgJSON []byte) (string, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.ckpt")
	n, err := Write(path, cfgJSON, &State{Now: 42, Rounds: 7, TraceBytes: 1234})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, n
}

// TestFormatRoundTrip locks the container: what Write puts down, Read
// gets back, and the byte count matches the file.
func TestFormatRoundTrip(t *testing.T) {
	cfg := []byte(`{"seed":1}`)
	path, n := writeTestCheckpoint(t, cfg)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("Write reported %d bytes, file is %d", n, fi.Size())
	}
	st, err := Read(path, cfg)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if st.Now != 42 || st.Rounds != 7 || st.TraceBytes != 1234 {
		t.Fatalf("round-trip lost fields: %+v", st)
	}
	if string(st.Config) != string(cfg) {
		t.Fatalf("embedded config %q, want %q", st.Config, cfg)
	}
	st2, gotCfg, err := ReadAny(path)
	if err != nil {
		t.Fatalf("ReadAny: %v", err)
	}
	if st2.Now != st.Now || string(gotCfg) != string(cfg) {
		t.Fatalf("ReadAny disagrees with Read")
	}
}

// TestFormatCorruptionDetection locks satellite #2: every corruption mode
// is detected, reported with a byte offset, and never panics the loader.
func TestFormatCorruptionDetection(t *testing.T) {
	cfg := []byte(`{"seed":1}`)
	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantSub string
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "bad magic"},
		{"future-version", func(b []byte) []byte { b[11] = 99; return b }, "unsupported format version"},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }, "truncated payload"},
		{"flipped-payload-bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, "CRC"},
		{"flipped-crc", func(b []byte) []byte { b[52] ^= 0x01; return b }, "CRC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, _ := writeTestCheckpoint(t, cfg)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Read(path, cfg)
			if err == nil {
				t.Fatalf("corrupted checkpoint loaded cleanly")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), "offset") {
				t.Fatalf("error %q carries no byte offset", err)
			}
		})
	}
}

// FuzzParse feeds the loader arbitrary bytes, both as a whole file and as
// a payload behind a valid header so the JSON decoder is reached: it never
// panics, and every error it returns names a byte offset.
func FuzzParse(f *testing.F) {
	f.Add(frame(Digest(nil), []byte(`{"now":42,"rounds":7}`)))
	f.Add([]byte(`{"now":42,"rounds":7,"config":{"seed":1}}`))
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, frame(Digest(nil), data)} {
			if _, _, err := parse("fuzz", b); err != nil && !strings.Contains(err.Error(), "byte offset") {
				t.Errorf("error names no byte offset: %v", err)
			}
		}
	})
}

// TestDigestMismatchNamesFields locks satellite #1's diagnostics: the
// rejection error names the differing config fields, not just two hashes.
func TestDigestMismatchNamesFields(t *testing.T) {
	cfg := []byte(`{"seed":1,"aps":4}`)
	path, _ := writeTestCheckpoint(t, cfg)
	_, err := Read(path, []byte(`{"seed":2,"aps":4}`))
	if err == nil {
		t.Fatalf("mismatched config accepted")
	}
	if !strings.Contains(err.Error(), "config mismatch") || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("error %q should report a config mismatch naming 'seed'", err)
	}
	if strings.Contains(err.Error(), "aps") {
		t.Fatalf("error %q names 'aps', which did not differ", err)
	}
}

// buildCell is a minimal measured network + engine for boundary tests.
func buildCell(t *testing.T, onRound func(int) error) (*core.Network, *traffic.Engine) {
	t.Helper()
	cfg := core.DefaultConfig(2, 2, units.Decibels(18), units.Decibels(24))
	cfg.Seed = 11
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Trace().Enable(1 << 16)
	if _, err := net.MeasureAndPrecode(); err != nil {
		t.Fatal(err)
	}
	profiles := make([]traffic.Profile, net.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.NewCBR(10e6, 200)
	}
	eng, err := traffic.New(net, traffic.Config{
		System:   traffic.SystemMegaMIMO,
		Profiles: profiles,
		Seed:     12,
		OnRound:  onRound,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, eng
}

// TestResumeEquivalenceAcrossBoundary locks satellite #4 at the package
// level: an engine captured mid-run and restored into a fresh build
// finishes with exactly the uninterrupted run's latency and jitter
// accounting — the window's percentile math sees one continuous stream of
// deliveries, not two halves.
func TestResumeEquivalenceAcrossBoundary(t *testing.T) {
	const window = 0.008
	net1, eng1 := buildCell(t, nil)
	_ = net1
	full, err := eng1.Run(window)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rounds < 6 {
		t.Fatalf("window too short: %d rounds", full.Rounds)
	}

	cutAt := full.Rounds / 2
	var captured *State
	interrupted := errTestInterrupt{}
	var net2 *core.Network
	var eng2 *traffic.Engine
	net2, eng2 = buildCell(t, func(rounds int) error {
		if rounds != cutAt {
			return nil
		}
		st, err := Capture(net2, eng2, 0, 0)
		if err != nil {
			t.Errorf("Capture: %v", err)
			return err
		}
		captured = st
		return interrupted
	})
	if _, err := eng2.Run(window); err != interrupted {
		t.Fatalf("interrupted run: got %v", err)
	}
	if captured == nil {
		t.Fatalf("hook never captured")
	}

	// Round-trip through the on-disk format, as a real resume would.
	cfgJSON := []byte(`{"test":"boundary"}`)
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if _, err := Write(path, cfgJSON, captured); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(path, cfgJSON)
	if err != nil {
		t.Fatal(err)
	}

	net3, eng3 := buildCell(t, nil)
	if err := eng3.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Restore(net3, eng3); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	resumed, err := eng3.ResumeRun()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.String(), full.String(); got != want {
		t.Fatalf("resumed report diverges from uninterrupted run:\n--- full\n%s\n--- resumed\n%s", want, got)
	}
	for i := range full.Clients {
		if math.Float64bits(full.Clients[i].JitterMs) != math.Float64bits(resumed.Clients[i].JitterMs) {
			t.Fatalf("stream %d jitter: resumed %v, want %v", i, resumed.Clients[i].JitterMs, full.Clients[i].JitterMs)
		}
	}
}

// errTestInterrupt is a sentinel error type for the capture hook.
type errTestInterrupt struct{}

func (errTestInterrupt) Error() string { return "test interrupt" }

// pinnedCheckpointSHA256 is the SHA-256 of the checkpoint
// TestCheckpointBytesStable writes. The snapshot structs encode
// themselves, so a changed json tag, field order or complex layout moves
// this hash; such a change must bump Version rather than silently rewrite
// the payload under the old one.
const pinnedCheckpointSHA256 = "0c790cc08cd4c51b86fadb8c5203601d5f02722f96705116e55234d98d79e371"

// TestCheckpointBytesStable pins the on-disk bytes of a real mid-run
// checkpoint — sync peers with their reference channels, in-flight
// emissions, oscillators, engine, bus and metrics — so a refactor of the
// snapshot types cannot change the format under an unchanged Version.
func TestCheckpointBytesStable(t *testing.T) {
	const cutAt = 8
	var captured *State
	var net *core.Network
	var eng *traffic.Engine
	net, eng = buildCell(t, func(rounds int) error {
		if rounds != cutAt {
			return nil
		}
		st, err := Capture(net, eng, 100, 200)
		if err != nil {
			return err
		}
		captured = st
		return errTestInterrupt{}
	})
	if _, err := eng.Run(0.008); err != (errTestInterrupt{}) {
		t.Fatalf("run to round %d: got %v", cutAt, err)
	}
	path := filepath.Join(t.TempDir(), "pinned.ckpt")
	if _, err := Write(path, []byte(`{"test":"pinned"}`), captured); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"peers":[`, `"ref":[`, `"emissions":[`, `"oscs":[`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("checkpoint lacks %s: the pin would not cover that encoding", key)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != pinnedCheckpointSHA256 {
		t.Fatalf("checkpoint SHA-256 %s, pinned %s: the payload schema changed without a Version bump", got, pinnedCheckpointSHA256)
	}
}
