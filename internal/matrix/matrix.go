// Package matrix implements the dense complex linear algebra MegaMIMO's
// beamforming needs: matrix products, Hermitian transpose, inversion by
// partially pivoted Gaussian elimination, and regularized (Tikhonov)
// pseudo-inverse.
//
// Matrices are small here — an N-AP MegaMIMO network inverts an N×N (or
// (N·ants)×(N·ants)) channel matrix, with N ≤ a few tens — so clarity wins
// over blocking and the package stays allocation-honest rather than clever.
package matrix

import (
	"errors"
	"fmt"
	"math/cmplx"
	"strings"
)

// ErrSingular is returned when elimination meets a pivot smaller than the
// singularity threshold, i.e. the channel matrix cannot be inverted.
var ErrSingular = errors.New("matrix: singular matrix")

// M is a dense rows×cols complex matrix in row-major order.
type M struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, row-major
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *M {
	if rows <= 0 || cols <= 0 {
		panic("matrix: non-positive dimension")
	}
	return &M{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]complex128) *M {
	if len(rows) == 0 {
		panic("matrix: no rows")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("matrix: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n×n identity.
func Identity(n int) *M {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at (r, c).
func (m *M) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *M) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Row returns the r-th row as a slice sharing the matrix backing store.
func (m *M) Row(r int) []complex128 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Col returns a copy of the c-th column.
func (m *M) Col(c int) []complex128 {
	out := make([]complex128, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = m.At(r, c)
	}
	return out
}

// Clone returns a deep copy of m.
func (m *M) Clone() *M {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equalish reports whether m and b have the same shape and all elements
// within tol of each other.
func (m *M) Equalish(b *M, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Mul returns m·b.
func (m *M) Mul(b *M) *M {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			orow := out.Row(i)
			for j := range brow {
				orow[j] += a * brow[j]
			}
		}
	}
	return out
}

// MulVec returns m·x as a new slice.
func (m *M) MulVec(x []complex128) []complex128 {
	if m.Cols != len(x) {
		panic("matrix: MulVec shape mismatch")
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var acc complex128
		for j, v := range row {
			acc += v * x[j]
		}
		out[i] = acc
	}
	return out
}

// H returns the Hermitian (conjugate) transpose of m.
func (m *M) H() *M {
	out := New(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, cmplx.Conj(m.At(r, c)))
		}
	}
	return out
}

// MaxAbs returns the largest element magnitude.
func (m *M) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Inverse returns m⁻¹ computed by Gaussian elimination with partial
// pivoting. It returns ErrSingular when a pivot falls below a scale-aware
// threshold.
func (m *M) Inverse() (*M, error) {
	inv := New(m.Rows, m.Rows)
	if err := m.InverseInto(inv, New(m.Rows, m.Rows)); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseInto is Inverse into caller-owned n×n matrices: inv receives m⁻¹
// and scratch holds the elimination workspace, so it allocates nothing.
// m is left unchanged; neither buffer may alias m or the other. On error
// the contents of inv and scratch are unspecified.
func (m *M) InverseInto(inv, scratch *M) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("matrix: Inverse of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	if inv.Rows != n || inv.Cols != n || scratch.Rows != n || scratch.Cols != n {
		return fmt.Errorf("matrix: InverseInto buffers %dx%d and %dx%d for a %dx%d matrix",
			inv.Rows, inv.Cols, scratch.Rows, scratch.Cols, n, n)
	}
	// Augment [A | I] and reduce in place.
	a := scratch
	copy(a.Data, m.Data)
	clear(inv.Data)
	for i := 0; i < n; i++ {
		inv.Set(i, i, 1)
	}
	scale := a.MaxAbs()
	if scale == 0 {
		return ErrSingular
	}
	tol := scale * float64(n) * 1e-14
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at/below the diagonal.
		pivRow, pivAbs := col, cmplx.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if ab := cmplx.Abs(a.At(r, col)); ab > pivAbs {
				pivRow, pivAbs = r, ab
			}
		}
		if pivAbs <= tol {
			return ErrSingular
		}
		if pivRow != col {
			swapRows(a, pivRow, col)
			swapRows(inv, pivRow, col)
		}
		pivInv := 1 / a.At(col, col)
		scaleRow(a, col, pivInv)
		scaleRow(inv, col, pivInv)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(a, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return nil
}

// String renders the matrix for debugging.
func (m *M) String() string {
	var b strings.Builder
	for r := 0; r < m.Rows; r++ {
		b.WriteString("[ ")
		for c := 0; c < m.Cols; c++ {
			fmt.Fprintf(&b, "%6.3f%+6.3fi ", real(m.At(r, c)), imag(m.At(r, c)))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func swapRows(m *M, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *M, r int, s complex128) {
	row := m.Row(r)
	for i := range row {
		row[i] *= s
	}
}

// axpyRow does row[dst] += f*row[src].
func axpyRow(m *M, dst, src int, f complex128) {
	d, s := m.Row(dst), m.Row(src)
	for i := range d {
		d[i] += f * s[i]
	}
}
