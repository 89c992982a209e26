package dsp

import "math"

// PoisonRecycler makes Release fill every buffer it is handed with NaN
// (all-ones bits for integer buffers), and poisons the buffers already
// held, so a borrower that reads scratch it did not write sees garbage.
// PoisonRecycler(false) restores plain recycling.
func PoisonRecycler(on bool) {
	recycler.Lock()
	defer recycler.Unlock()
	recycler.onRelease = nil
	if !on {
		return
	}
	recycler.onRelease = poison
	for _, b := range recycler.c128 {
		poison(b)
	}
	for _, b := range recycler.f64 {
		poison(b)
	}
	for _, b := range recycler.u64 {
		poison(b)
	}
	for _, b := range recycler.u8 {
		poison(b)
	}
}

func poison(buf any) {
	nan := math.NaN()
	switch b := buf.(type) {
	case []complex128:
		for i := range b {
			b[i] = complex(nan, nan)
		}
	case []float64:
		for i := range b {
			b[i] = nan
		}
	case []uint64:
		for i := range b {
			b[i] = math.MaxUint64
		}
	case []byte:
		for i := range b {
			b[i] = 0xff
		}
	}
}
