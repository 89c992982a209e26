package dsp

import (
	"slices"
	"sort"
	"sync"
)

// planCache holds one immutable FFTPlan per transform size. An FFTPlan is
// read-only after construction (Forward/Inverse only read its tables), so a
// cached plan may be shared by any number of goroutines; the cache itself is
// guarded by a mutex. PlanFor exists so per-symbol code paths never rebuild
// twiddle tables: plan construction allocates, transforms do not.
var planCache = struct {
	sync.Mutex
	m map[int]*FFTPlan
}{m: make(map[int]*FFTPlan)}

// PlanFor returns the shared FFT plan for size n (a power of two ≥ 2),
// building and caching it on first use. The returned plan must be treated
// as read-only; it is safe for concurrent use.
func PlanFor(n int) (*FFTPlan, error) {
	planCache.Lock()
	defer planCache.Unlock()
	if p := planCache.m[n]; p != nil {
		return p, nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	planCache.m[n] = p
	return p, nil
}

// MustPlanFor is PlanFor for compile-time-constant sizes.
func MustPlanFor(n int) *FFTPlan {
	p, err := PlanFor(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Elem is the element types the scratch recycler serves.
type Elem interface {
	complex128 | float64 | uint64 | byte
}

// recycleCap bounds the bytes the recycler holds: above the working set
// of two concurrent 10-AP networks, so a burst cannot pin its high-water
// mark while steady rounds find every buffer they need.
const recycleCap = 32 << 20

// recycler is the process-wide free list every network borrows its
// scratch from, so buffers outlive the network that first allocated them
// and a new topology starts warm. A mutex rather than a sync.Pool guards
// it, so which buffers a serial run reuses, and hence its allocation
// counts, do not depend on when the GC runs. Each element type has its
// own list, sorted by capacity.
var recycler struct {
	sync.Mutex
	held int // bytes across every list
	c128 [][]complex128
	f64  [][]float64
	u64  [][]uint64
	u8   [][]byte
	// onRelease, when set by tests, sees every buffer as it is returned.
	onRelease func(any)
}

// listOf returns T's free list and T's size in bytes; the caller holds
// the recycler's lock.
func listOf[T Elem]() (*[][]T, int) {
	var l any
	size := 8
	switch any(*new(T)).(type) {
	case complex128:
		l, size = &recycler.c128, 16
	case float64:
		l = &recycler.f64
	case uint64:
		l = &recycler.u64
	default:
		l, size = &recycler.u8, 1
	}
	return l.(*[][]T), size
}

// Borrow returns a buffer of length n from the recycler: the smallest held
// buffer whose capacity fits and is at most twice n, or a fresh one (so a
// small request never ties up a large buffer). A reused buffer keeps the
// contents its last borrower left, so the caller must clear or fully
// overwrite it before reading, and hand it back with Release once it is
// done.
func Borrow[T Elem](n int) []T {
	recycler.Lock()
	l, size := listOf[T]()
	i := sort.Search(len(*l), func(i int) bool { return cap((*l)[i]) >= n })
	if i == len(*l) || cap((*l)[i]) > 2*n {
		recycler.Unlock()
		return make([]T, n)
	}
	b := (*l)[i]
	*l = slices.Delete(*l, i, i+1)
	recycler.held -= cap(b) * size
	recycler.Unlock()
	return b[:n]
}

// Release hands b back to the recycler; the caller must not touch it
// afterwards. Over the byte cap, smaller held buffers of the same type
// make room for a larger b, and otherwise b is left to the GC. A nil or
// empty-capacity b is ignored.
func Release[T Elem](b []T) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	recycler.Lock()
	defer recycler.Unlock()
	if recycler.onRelease != nil {
		recycler.onRelease(b)
	}
	l, size := listOf[T]()
	for recycler.held+cap(b)*size > recycleCap && len(*l) > 0 && cap((*l)[0]) < cap(b) {
		recycler.held -= cap((*l)[0]) * size
		*l = slices.Delete(*l, 0, 1)
	}
	if recycler.held+cap(b)*size > recycleCap {
		return
	}
	i := sort.Search(len(*l), func(i int) bool { return cap((*l)[i]) >= cap(b) })
	*l = slices.Insert(*l, i, b)
	recycler.held += cap(b) * size
}
