// Package interleave implements the 802.11 per-OFDM-symbol block
// interleaver. The two-permutation design separates adjacent coded bits
// onto non-adjacent subcarriers (first permutation) and alternates them
// between high- and low-reliability constellation bit positions (second),
// so a frequency-selective fade or a weak QAM bit does not wipe out a run
// of consecutive coded bits.
package interleave

import (
	"fmt"
	"sync"
)

// Interleaver holds the precomputed permutation for one (Ncbps, Nbpsc)
// pair: coded bits per symbol and bits per subcarrier.
type Interleaver struct {
	ncbps int
	perm  []int // perm[k] = position after interleaving
	inv   []int
}

// New builds the interleaver for ncbps coded bits per symbol carried on
// subcarriers with nbpsc bits each. ncbps must be a multiple of 16·nbpsc
// is NOT required by the math; only divisibility used below is enforced.
func New(ncbps, nbpsc int) (*Interleaver, error) {
	if ncbps <= 0 || nbpsc <= 0 || ncbps%nbpsc != 0 {
		return nil, fmt.Errorf("interleave: bad parameters ncbps=%d nbpsc=%d", ncbps, nbpsc)
	}
	if ncbps%16 != 0 {
		return nil, fmt.Errorf("interleave: ncbps=%d not a multiple of 16", ncbps)
	}
	s := nbpsc / 2
	if s < 1 {
		s = 1
	}
	it := &Interleaver{ncbps: ncbps, perm: make([]int, ncbps), inv: make([]int, ncbps)}
	for k := 0; k < ncbps; k++ {
		// First permutation (802.11-1999 17.3.5.6).
		i := (ncbps/16)*(k%16) + k/16
		// Second permutation.
		j := s*(i/s) + (i+ncbps-(16*i)/ncbps)%s
		it.perm[k] = j
		it.inv[j] = k
	}
	return it, nil
}

// MustNew panics on error; for table-driven setup with constant parameters.
func MustNew(ncbps, nbpsc int) *Interleaver {
	it, err := New(ncbps, nbpsc)
	if err != nil {
		panic(err)
	}
	return it
}

// cache holds one shared Interleaver per parameter pair. An Interleaver is
// read-only after construction, so cached instances are safe for concurrent
// use by any number of goroutines.
var cache = struct {
	sync.Mutex
	m map[[2]int]*Interleaver
}{m: make(map[[2]int]*Interleaver)}

// Cached returns the shared interleaver for (ncbps, nbpsc), building it on
// first use. Per-frame PHY paths use this so the permutation tables are not
// rebuilt for every frame.
func Cached(ncbps, nbpsc int) (*Interleaver, error) {
	key := [2]int{ncbps, nbpsc}
	cache.Lock()
	defer cache.Unlock()
	if it := cache.m[key]; it != nil {
		return it, nil
	}
	it, err := New(ncbps, nbpsc)
	if err != nil {
		return nil, err
	}
	cache.m[key] = it
	return it, nil
}

// MustCached is Cached for compile-time-constant parameters.
func MustCached(ncbps, nbpsc int) *Interleaver {
	it, err := Cached(ncbps, nbpsc)
	if err != nil {
		panic(err)
	}
	return it
}

// InterleaveInto permutes one block of exactly ncbps bits into a
// caller-supplied destination of exactly ncbps bits; it allocates nothing.
// dst must not alias bits.
func (it *Interleaver) InterleaveInto(dst, bits []byte) error {
	if len(bits) != it.ncbps {
		return fmt.Errorf("interleave: block of %d bits, want %d", len(bits), it.ncbps)
	}
	if len(dst) != it.ncbps {
		return fmt.Errorf("interleave: destination of %d bits, want %d", len(dst), it.ncbps)
	}
	for k, b := range bits {
		dst[it.perm[k]] = b
	}
	return nil
}

// DeinterleaveLLRInto inverts the permutation on one block of soft values
// into a caller-supplied destination of exactly ncbps values; it allocates
// nothing. dst must not alias llr.
func (it *Interleaver) DeinterleaveLLRInto(dst, llr []float64) error {
	if len(llr) != it.ncbps {
		return fmt.Errorf("interleave: block of %d LLRs, want %d", len(llr), it.ncbps)
	}
	if len(dst) != it.ncbps {
		return fmt.Errorf("interleave: destination of %d LLRs, want %d", len(dst), it.ncbps)
	}
	for j, v := range llr {
		dst[it.inv[j]] = v
	}
	return nil
}
