package csi

import (
	"math/cmplx"
	"testing"

	"megamimo/internal/rng"
)

func sampleReport(src *rng.Source, ants, nfft int, bins []int) *Report {
	r := &Report{
		Client:     2,
		RxAnt:      1,
		TxAnts:     make([]int, ants),
		H:          make([][]complex128, ants),
		NoiseVar:   3.25e-3,
		MeasuredAt: 123456789,
	}
	for a := 0; a < ants; a++ {
		r.TxAnts[a] = a*4 + 1
		row := make([]complex128, nfft)
		for _, b := range bins {
			row[b] = src.ComplexNormal(1)
		}
		r.H[a] = row
	}
	return r
}

func occupied() []int {
	out := make([]int, 0, 52)
	for k := 1; k <= 26; k++ {
		out = append(out, k)
	}
	for k := 38; k <= 63; k++ {
		out = append(out, k)
	}
	return out
}

func TestWireRoundTripSingleChunk(t *testing.T) {
	bins := occupied()
	r := sampleReport(rng.New(1), 2, 64, bins)
	chunks, err := r.MarshalChunks(bins, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("%d chunks for 2 antennas", len(chunks))
	}
	a := NewAssembler()
	got, err := a.Feed(chunks[0], 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("single chunk did not complete")
	}
	verifyReport(t, r, got, bins)
}

func TestWireRoundTripMultiChunkAnyOrder(t *testing.T) {
	bins := occupied()
	r := sampleReport(rng.New(2), 10, 64, bins)
	chunks, err := r.MarshalChunks(bins, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	a := NewAssembler()
	// Feed in reverse order; only the last must complete.
	for i := len(chunks) - 1; i >= 0; i-- {
		got, err := a.Feed(chunks[i], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if got == nil {
				t.Fatal("report did not complete")
			}
			verifyReport(t, r, got, bins)
		} else if got != nil {
			t.Fatal("completed early")
		}
	}
}

func TestWireDuplicateChunkIgnored(t *testing.T) {
	bins := occupied()
	r := sampleReport(rng.New(3), 6, 64, bins)
	chunks, _ := r.MarshalChunks(bins, 1000)
	a := NewAssembler()
	if _, err := a.Feed(chunks[0], 6, 64); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Feed(chunks[0], 6, 64); err != nil || got != nil {
		t.Fatalf("duplicate handling: %v %v", got, err)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	a := NewAssembler()
	if _, err := a.Feed([]byte{1, 2, 3}, 2, 64); err == nil {
		t.Fatal("short payload accepted")
	}
	bins := occupied()
	r := sampleReport(rng.New(4), 2, 64, bins)
	chunks, _ := r.MarshalChunks(bins, 1400)
	bad := append([]byte(nil), chunks[0]...)
	bad[0] ^= 0xFF // magic
	if _, err := a.Feed(bad, 2, 64); err == nil {
		t.Fatal("bad magic accepted")
	}
	trunc := chunks[0][:len(chunks[0])/2]
	if _, err := a.Feed(trunc, 2, 64); err == nil {
		t.Fatal("truncated chunk accepted")
	}
}

func TestMaxAntennasPerChunk(t *testing.T) {
	n := MaxAntennasPerChunk(52, 1400)
	if n < 2 || n > 3 {
		t.Fatalf("antennas per 1400B chunk = %d", n)
	}
	if MaxAntennasPerChunk(52, 10) != 1 {
		t.Fatal("tiny payload must still allow 1 antenna")
	}
}

func verifyReport(t *testing.T, want, got *Report, bins []int) {
	t.Helper()
	if got.Client != want.Client || got.RxAnt != want.RxAnt || got.MeasuredAt != want.MeasuredAt {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if d := got.NoiseVar - want.NoiseVar; d > 1e-12 || d < -1e-12 {
		t.Fatalf("noise var %v != %v", got.NoiseVar, want.NoiseVar)
	}
	for a := range want.H {
		if got.TxAnts[a] != want.TxAnts[a] {
			t.Fatalf("ant id %d: %d != %d", a, got.TxAnts[a], want.TxAnts[a])
		}
		for _, b := range bins {
			if cmplx.Abs(got.H[a][b]-want.H[a][b]) > 1e-6 {
				t.Fatalf("H[%d][%d] = %v, want %v", a, b, got.H[a][b], want.H[a][b])
			}
		}
	}
}

// FuzzAssemblerFeed feeds one assembler two arbitrary payloads in turn, so
// a second chunk can land on the partial report the first one opened. It
// must never panic.
func FuzzAssemblerFeed(f *testing.F) {
	bins := occupied()
	chunks, err := sampleReport(rng.New(5), 3, 64, bins).MarshalChunks(bins, 600)
	if err != nil || len(chunks) < 2 {
		f.Fatalf("%d seed chunks: %v", len(chunks), err)
	}
	f.Add(chunks[0], chunks[1])
	f.Add(chunks[1], chunks[1])
	f.Add(chunks[0][:len(chunks[0])/2], []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		asm := NewAssembler()
		for _, p := range [][]byte{a, b} {
			_, _ = asm.Feed(p, 3, 64)
		}
	})
}
