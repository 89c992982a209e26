//go:build !amd64

package fec

// acsKernel is the add-compare-select step trellis runs. Without an
// assembly version for this architecture it is acsStep.
var acsKernel = acsStep
