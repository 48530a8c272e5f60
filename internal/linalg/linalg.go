// Package linalg provides the small dense linear algebra Kriging needs: an
// LU solver with partial pivoting for the (k+1)×(k+1) ordinary-kriging
// systems. Stdlib-only by design (the module has no dependencies).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set sets element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// SolveInPlace solves A·x = b by Gaussian elimination with partial
// pivoting, destroying A and b; on success b holds x. It fails on
// non-square or (near-)singular systems.
func SolveInPlace(a *Matrix, b []float64) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("linalg: non-square system %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return fmt.Errorf("linalg: rhs length %d for %dx%d system", len(b), n, n)
	}
	const tiny = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot: largest |a[row][col]| among rows >= col.
		pivot := col
		pv := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > pv {
				pivot, pv = r, v
			}
		}
		if pv < tiny {
			return fmt.Errorf("linalg: singular system (pivot %g at column %d)", pv, col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			b[pivot], b[col] = b[col], b[pivot]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a.At(r, c) * b[c]
		}
		b[r] = sum / a.At(r, r)
	}
	return nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
