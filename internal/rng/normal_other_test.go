//go:build !amd64

package rng

// hostKernels lists the rectangle kernels this CPU can run: the Go one.
func hostKernels() []kernel { return []kernel{goKernel} }
