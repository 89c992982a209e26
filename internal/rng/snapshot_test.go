package rng

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand proves the snapshotable generator is
// bit-identical to the math/rand source every golden figure was produced
// with: for a spread of seeds, an interleaved draw program over every
// distribution the simulator uses must match *rand.Rand exactly.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 7, 42, -1, 1 << 40, -(1 << 35), 1<<31 - 1, 1 << 31} {
		s := New(seed)
		r := rand.New(rand.NewSource(seed))
		buf1 := make([]byte, 13)
		buf2 := make([]byte, 13)
		for i := 0; i < 500; i++ {
			if g, w := s.Float64(), r.Float64(); g != w {
				t.Fatalf("seed %d step %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := s.Norm(), r.NormFloat64(); g != w {
				t.Fatalf("seed %d step %d: Norm = %v, want %v", seed, i, g, w)
			}
			sd := math.Sqrt(0.7 / 2)
			if g, w := s.ComplexNormal(0.7), complex(sd*r.NormFloat64(), sd*r.NormFloat64()); g != w {
				t.Fatalf("seed %d step %d: ComplexNormal = %v, want %v", seed, i, g, w)
			}
			if g, w := s.Intn(97), r.Intn(97); g != w {
				t.Fatalf("seed %d step %d: Intn = %d, want %d", seed, i, g, w)
			}
			// Bytes must reproduce rand.Rand.Read including the carry of
			// partial Int63 words across calls (13 is coprime with 7).
			s.Bytes(buf1)
			r.Read(buf2)
			if string(buf1) != string(buf2) {
				t.Fatalf("seed %d step %d: Bytes = %x, want %x", seed, i, buf1, buf2)
			}
			if i%50 == 0 {
				gp, wp := s.Perm(11), r.Perm(11)
				for j := range gp {
					if gp[j] != wp[j] {
						t.Fatalf("seed %d step %d: Perm[%d] = %d, want %d", seed, i, j, gp[j], wp[j])
					}
				}
			}
		}
	}
}

// TestSnapshotRoundTrip checks the core restore property: snapshot a
// source mid-stream (including mid-Bytes-carry and with the split base
// materialized), restore into a fresh source, and both must produce the
// identical continuation of every draw sequence.
func TestSnapshotRoundTrip(t *testing.T) {
	s := New(12345)
	// Burn an arbitrary prefix that leaves a partial Bytes carry and a
	// materialized split base behind.
	for i := 0; i < 100; i++ {
		s.Norm()
		s.Float64()
	}
	s.Bytes(make([]byte, 5))
	s.Split(3)

	st := s.State()
	restored := New(999) // deliberately different seed; Restore must overwrite fully
	if err := restored.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	for i := 0; i < 300; i++ {
		if g, w := restored.Float64(), s.Float64(); g != w {
			t.Fatalf("step %d: Float64 diverged: %v vs %v", i, g, w)
		}
		if g, w := restored.Norm(), s.Norm(); g != w {
			t.Fatalf("step %d: Norm diverged: %v vs %v", i, g, w)
		}
		b1, b2 := restored.Bytes(make([]byte, 3)), s.Bytes(make([]byte, 3))
		if string(b1) != string(b2) {
			t.Fatalf("step %d: Bytes diverged: %x vs %x", i, b1, b2)
		}
		// Split children must also match: the split base is part of the state.
		if g, w := restored.Split(uint64(i)).Float64(), s.Split(uint64(i)).Float64(); g != w {
			t.Fatalf("step %d: Split child diverged: %v vs %v", i, g, w)
		}
	}
}

// TestSnapshotIsDeepCopy ensures mutating the source after State() does
// not corrupt the captured snapshot.
func TestSnapshotIsDeepCopy(t *testing.T) {
	s := New(7)
	st := s.State()
	want := append([]int64(nil), st.Vec...)
	for i := 0; i < 2000; i++ {
		s.Float64()
	}
	for i, v := range st.Vec {
		if v != want[i] {
			t.Fatalf("snapshot register word %d mutated after further draws", i)
		}
	}
}

// TestRestoreRejectsMalformedState covers the validation paths: a
// truncated register, out-of-range cursors, and an impossible byte carry
// must all fail without modifying the target source.
func TestRestoreRejectsMalformedState(t *testing.T) {
	good := New(1).State()
	cases := []struct {
		name   string
		mutate func(*State)
	}{
		{"short register", func(st *State) { st.Vec = st.Vec[:100] }},
		{"nil register", func(st *State) { st.Vec = nil }},
		{"tap out of range", func(st *State) { st.Tap = lfsrLen }},
		{"negative feed", func(st *State) { st.Feed = -1 }},
		{"bad read carry", func(st *State) { st.ReadPos = 8 }},
	}
	for _, tc := range cases {
		st := good
		st.Vec = append([]int64(nil), good.Vec...)
		tc.mutate(&st)
		s := New(1)
		before := s.State()
		if err := s.Restore(st); err == nil {
			t.Fatalf("%s: Restore accepted malformed state", tc.name)
		}
		after := s.State()
		if after.Tap != before.Tap || after.Feed != before.Feed {
			t.Fatalf("%s: failed Restore mutated the source", tc.name)
		}
	}
}
