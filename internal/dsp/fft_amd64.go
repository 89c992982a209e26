package dsp

// fftAVX2 reports whether 64-point plans run fft64AVX2: where HasAVX2
// reports AVX2 with YMM state saved. It is set once, at init, and
// NewFFTPlan reads it to decide whether to build the kernel's tables;
// Forward and Inverse branch on those rather than call through a function
// value, which would make every caller's buffers escape to the heap.
var fftAVX2 = HasAVX2()

// fft64AVX2 is the 64-point transform of tw's direction in AVX2 assembly
// (fft_amd64.s). It gathers src[rev[i]] into real and imaginary planes in
// its frame, multiplying each sample by complex(tw.pre, 0) when tw.pre is
// not 0, runs the six radix-2 stages on the planes, four butterflies to a
// YMM register, multiplies each output by complex(post, 0) if scaled, and
// interleaves the result into dst. dst and src may alias. Every sum, difference and
// product is the Go steps' IEEE operation with the Go steps' operands in
// the Go steps' order, with no FMA, and the k = 0 butterflies are not
// multiplied, so it writes the same bits as reorder and butterflies for
// every input without a NaN in it.
//
//go:noescape
func fft64AVX2(dst, src *[64]complex128, tw *fftPlanes, post float64, scaled bool)
