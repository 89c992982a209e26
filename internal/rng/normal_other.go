//go:build !amd64

package rng

// normalKernel is the kernel AddComplexNormal runs. Without an assembly
// version for this architecture it is goKernel.
var normalKernel = goKernel

// addNormals adds sd times a standard normal draw to every element of d in
// order, the draws those of norm in turn; k is always goKernel here.
func (r *lfsr) addNormals(k kernel, d []float64, sd float64) { r.addNormalsGo(d, sd) }

// step runs one wrap-free run of the register with stepGo.
func step(k kernel, out []uint64, fv, tv []int64) { stepGo(out, fv, tv) }
