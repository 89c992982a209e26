package dsp

import (
	"sync"
	"testing"
)

func TestPlanForCachesAndTransforms(t *testing.T) {
	p1, err := PlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanFor(64)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("PlanFor(64) did not return the cached plan")
	}
	if _, err := PlanFor(63); err == nil {
		t.Error("PlanFor(63) should reject a non-power-of-two size")
	}
	// The cached plan must round-trip like a fresh one.
	src := make([]complex128, 64)
	src[3] = 2 + 1i
	freq := make([]complex128, 64)
	p1.Forward(freq, src)
	back := make([]complex128, 64)
	p1.Inverse(back, freq)
	for i := range src {
		if d := back[i] - src[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
			t.Fatalf("round trip differs at %d: %v != %v", i, back[i], src[i])
		}
	}
}

// emptyRecycler drops every held buffer, so a test sees only its own.
func emptyRecycler() {
	recycler.Lock()
	defer recycler.Unlock()
	recycler.held = 0
	recycler.c128 = nil
	recycler.f64 = nil
	recycler.u64 = nil
	recycler.u8 = nil
}

func heldBytes() int {
	recycler.Lock()
	defer recycler.Unlock()
	return recycler.held
}

// TestScratchReusesAndZeroes: scratch borrowed when the recycler holds
// nothing that fits comes zeroed, and once released the same buffer is
// handed to the next borrow of that size, with what its last borrower
// wrote still in it.
func TestScratchReusesAndZeroes(t *testing.T) {
	emptyRecycler()
	defer emptyRecycler()
	a, b := Borrow[complex128](8), Borrow[float64](16)
	if len(a) != 8 || len(b) != 16 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != 0 {
			t.Fatalf("fresh complex buffer not zeroed at %d: %v", i, a[i])
		}
	}
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("fresh float buffer not zeroed at %d: %v", i, b[i])
		}
	}
	a[0], b[15] = 1, 2
	Release(a)
	Release(b)
	a2, b2 := Borrow[complex128](8), Borrow[float64](16)
	if &a2[0] != &a[0] || &b2[0] != &b[0] {
		t.Fatal("same-size buffer was not reused after Release")
	}
	if a2[0] != 1 || b2[15] != 2 {
		t.Error("reused buffer lost its contents; Borrow must not pay for a clear")
	}
	if heldBytes() != 0 {
		t.Errorf("recycler holds %d bytes with every buffer borrowed", heldBytes())
	}
}

// TestScratchGrowsWithinCycle: a request larger than every held buffer
// gets a fresh one of the full length rather than a truncated small one,
// and that larger buffer is kept for the next cycle.
func TestScratchGrowsWithinCycle(t *testing.T) {
	emptyRecycler()
	defer emptyRecycler()
	small := Borrow[complex128](4)
	Release(small)
	big := Borrow[complex128](32)
	if len(big) != 32 {
		t.Fatalf("len = %d, want 32", len(big))
	}
	if &big[0] == &small[0] {
		t.Fatal("Borrow(32) was handed the 4-sample buffer")
	}
	Release(big)
	if again := Borrow[complex128](32); &again[0] != &big[0] {
		t.Error("grown buffer was not kept for reuse")
	}
	if again := Borrow[complex128](4); &again[0] != &small[0] {
		t.Error("small buffer was dropped when the larger one was released")
	}
}

// TestRecyclerBestFit: a borrow gets the smallest held buffer that fits,
// keeps what its last borrower wrote, and a request no held buffer fits
// gets a fresh one.
func TestRecyclerBestFit(t *testing.T) {
	emptyRecycler()
	defer emptyRecycler()
	small, mid, big := Borrow[complex128](8), Borrow[complex128](16), Borrow[complex128](64)
	mid[15] = 2
	Release(big)
	Release(small)
	Release(mid)
	if got, want := heldBytes(), (8+16+64)*16; got != want {
		t.Fatalf("recycler holds %d bytes, want %d", got, want)
	}
	b := Borrow[complex128](10)
	if len(b) != 10 || &b[0] != &mid[0] {
		t.Fatalf("Borrow(10) did not get the 16-sample buffer (len %d)", len(b))
	}
	if b[:16][15] != 2 {
		t.Error("Borrow cleared a reused buffer; clearing is the borrower's job")
	}
	if c := Borrow[complex128](100); &c[0] == &big[0] {
		t.Error("Borrow(100) got a 64-sample buffer")
	}
	if c := Borrow[complex128](31); &c[0] == &big[0] {
		t.Error("Borrow(31) tied up a 64-sample buffer")
	}
	if c := Borrow[complex128](64); &c[0] != &big[0] {
		t.Error("Borrow(64) did not get the held 64-sample buffer")
	}
	// Element types keep separate lists.
	f := Borrow[float64](8)
	Release(f)
	if c := Borrow[complex128](8); &c[0] != &small[0] {
		t.Error("Borrow(8) did not get the held 8-sample complex buffer")
	}
	if heldBytes() != 8*8 {
		t.Errorf("recycler holds %d bytes, want only the float buffer's %d", heldBytes(), 8*8)
	}
	Release[complex128](nil) // ignored
}

// TestRecyclerByteCap: the recycler never holds more than recycleCap
// bytes, and a large returned buffer displaces smaller ones of its type
// rather than being dropped.
func TestRecyclerByteCap(t *testing.T) {
	emptyRecycler()
	defer emptyRecycler()
	const n = 1 << 16 // 1 MB per complex buffer
	for i := 0; i < 2*recycleCap/(16*n); i++ {
		Release(make([]complex128, n))
		Release(make([]uint64, n))
		if h := heldBytes(); h > recycleCap {
			t.Fatalf("recycler holds %d bytes, cap is %d", h, recycleCap)
		}
	}
	big := make([]complex128, 4*n)
	Release(big)
	if h := heldBytes(); h > recycleCap {
		t.Fatalf("recycler holds %d bytes after a large release, cap is %d", h, recycleCap)
	}
	if b := Borrow[complex128](4 * n); &b[0] != &big[0] {
		t.Error("a full recycler dropped a large buffer instead of the smaller ones")
	}
}

// TestRecyclerAllocFreeSteadyState: once every size a cycle borrows has
// been returned, the cycle allocates nothing.
func TestRecyclerAllocFreeSteadyState(t *testing.T) {
	emptyRecycler()
	defer emptyRecycler()
	cycle := func() {
		a, b := Borrow[complex128](80), Borrow[complex128](64)
		f, u, y := Borrow[float64](96), Borrow[uint64](32), Borrow[byte](200)
		Release(a)
		Release(b)
		Release(f)
		Release(u)
		Release(y)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n > 0 {
		t.Errorf("steady-state borrow/release cycle allocates %.1f times", n)
	}
}

// TestRecyclerConcurrentUse: goroutines borrowing and releasing at once
// never hold the same buffer. Run it under -race.
func TestRecyclerConcurrentUse(t *testing.T) {
	emptyRecycler()
	defer emptyRecycler()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := Borrow[float64](64 + i%7)
				for k := range b {
					b[k] = float64(g)
				}
				for k := range b {
					if b[k] != float64(g) {
						t.Errorf("goroutine %d: buffer shared with goroutine %v", g, b[k])
						return
					}
				}
				Release(b)
			}
		}()
	}
	wg.Wait()
}
