package dsp

// xcorrAVX2 reports whether crossCorrelateKernel runs crossCorrelateAVX2:
// where HasAVX2 reports AVX2 with YMM state saved. It is set once, at
// init. The kernel branches on it rather than calling through a function
// value, which would make every caller's buffers escape to the heap.
var xcorrAVX2 = HasAVX2()

// xcorrSpan and xcorrMaxRef size crossCorrelateAVX2's frame: one call
// splits at most xcorrSpan samples and xcorrMaxRef taps into planes
// (XSPAN and XREF in xcorr_amd64.s).
const (
	xcorrSpan   = 512
	xcorrMaxRef = 64
)

// crossCorrelateKernel is CrossCorrelateInto's loop. With AVX2 it runs
// the outputs in groups of eight through crossCorrelateAVX2 and the
// len(out) mod 8 left over through the Go step. Without AVX2, or for
// inputs larger than the kernel's frame holds, which no caller makes, the
// Go step runs every output.
func crossCorrelateKernel(out, x, ref []complex128) {
	if xcorrAVX2 && len(x) <= xcorrSpan && len(ref) <= xcorrMaxRef {
		n := len(out) &^ 7
		crossCorrelateAVX2(out[:n], x[:n+len(ref)-1], ref)
		out, x = out[n:], x[n:]
	}
	crossCorrelateStep(out, x, ref)
}

// crossCorrelateAVX2 is crossCorrelateStep in AVX2 assembly
// (xcorr_amd64.s) for len(out) a multiple of 8,
// len(x) = len(out)+len(ref)-1 ≤ xcorrSpan and 1 ≤ len(ref) ≤ xcorrMaxRef.
// It splits x and ref into real and imaginary planes in its frame, then
// runs two groups of four outputs, one output per YMM lane, per pass over
// the taps. Every product, difference and sum is the Go step's IEEE
// operation with the Go step's operands in the Go step's order, with no
// FMA, so it writes the same bits for every input without a NaN in it.
//
//go:noescape
func crossCorrelateAVX2(out, x, ref []complex128)
