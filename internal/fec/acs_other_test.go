//go:build !amd64

package fec

// hostKernels lists the kernels this architecture runs: the Go one.
func hostKernels() []kernel { return []kernel{goKernel} }
