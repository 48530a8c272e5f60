// Package weights builds the sparse spatial weight matrices that the
// autocorrelation statistics (Moran's I, Getis-Ord G — Table 1 of the
// paper) are defined over: k-nearest-neighbour and distance-band
// neighbourhoods, optionally row-standardised.
package weights

import (
	"fmt"

	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/index/kdtree"
	"geostat/internal/parallel"
)

// Matrix is a sparse spatial weight matrix in CSR layout. Self-weights are
// always zero (w_ii = 0), per the statistics' definitions.
type Matrix struct {
	N   int
	off []int32
	col []int32
	w   []float64
}

// KNN returns the binary k-nearest-neighbour weight matrix over the sites
// (xs[i], ys[i]): w_ij = 1 if j is one of i's k nearest points (asymmetric
// in general). workers is the parallelism degree (0/1 serial, <0
// GOMAXPROCS); rows are computed independently (the kd-tree is read-only
// once built) and assembled in site order, so the matrix is bit-identical
// for every worker count.
func KNN(xs, ys []float64, k, workers int) (*Matrix, error) {
	n := len(xs)
	if k < 1 {
		return nil, fmt.Errorf("weights: k must be >= 1, got %d", k)
	}
	if k >= n {
		return nil, fmt.Errorf("weights: k=%d must be < n=%d", k, n)
	}
	tree := kdtree.NewColumns(xs, ys)
	return fromQueries(n, workers, k, func(i int, buf []int) []int {
		// k+1 nearest includes the point itself (distance 0); drop i.
		idx, _ := tree.KNearest(geom.Point{X: xs[i], Y: ys[i]}, k+1, buf)
		return idx
	}), nil
}

// DistanceBand returns the binary distance-band weight matrix over the
// sites (xs[i], ys[i]): w_ij = 1 if 0 < dist(i, j) <= radius (symmetric).
// Rows are computed independently over a read-only grid index, so like KNN
// the matrix is bit-identical for every worker count.
func DistanceBand(xs, ys []float64, radius float64, workers int) (*Matrix, error) {
	n := len(xs)
	if !(radius > 0) {
		return nil, fmt.Errorf("weights: radius must be positive, got %g", radius)
	}
	idx := gridindex.NewColumns(xs, ys, radius)
	return fromQueries(n, workers, n, func(i int, buf []int) []int {
		return idx.RangeQuery(geom.Point{X: xs[i], Y: ys[i]}, radius, buf[:0])
	}), nil
}

// fromQueries assembles the CSR matrix with unit weights whose row i is the
// first limit indices other than i that query(i, buf) returns; buf is
// per-worker scratch the query may reuse for its result.
func fromQueries(n, workers, limit int, query func(i int, buf []int) []int) *Matrix {
	rows := make([][]int32, n)
	type scratch struct{ buf []int }
	parallel.ForScratch(n, workers,
		func() *scratch { return &scratch{} },
		func(s *scratch, i int) {
			idx := query(i, s.buf)
			s.buf = idx
			row := make([]int32, 0, min(limit, len(idx)))
			for _, j := range idx {
				if j != i && len(row) < limit {
					row = append(row, int32(j))
				}
			}
			rows[i] = row
		})
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	m := &Matrix{
		N:   n,
		off: make([]int32, n+1),
		col: make([]int32, 0, total),
		w:   make([]float64, total),
	}
	for i, r := range rows {
		m.col = append(m.col, r...)
		m.off[i+1] = int32(len(m.col))
	}
	for i := range m.w {
		m.w[i] = 1
	}
	return m
}

// RowStandardize scales each row to sum to 1 (rows with no neighbours stay
// zero) and returns m for chaining.
func (m *Matrix) RowStandardize() *Matrix {
	for i := 0; i < m.N; i++ {
		lo, hi := m.off[i], m.off[i+1]
		sum := 0.0
		for _, v := range m.w[lo:hi] {
			sum += v
		}
		if sum == 0 {
			continue
		}
		for k := lo; k < hi; k++ {
			m.w[k] /= sum
		}
	}
	return m
}

// ForEachNeighbor calls fn(j, w_ij) for every nonzero weight in row i.
func (m *Matrix) ForEachNeighbor(i int, fn func(j int, w float64)) {
	for k := m.off[i]; k < m.off[i+1]; k++ {
		fn(int(m.col[k]), m.w[k])
	}
}

// Degree returns the number of neighbours of i.
func (m *Matrix) Degree(i int) int { return int(m.off[i+1] - m.off[i]) }

// S0 returns Σ_ij w_ij, the total weight.
func (m *Matrix) S0() float64 {
	s := 0.0
	for _, v := range m.w {
		s += v
	}
	return s
}

// RowSum returns Σ_j w_ij for row i.
func (m *Matrix) RowSum(i int) float64 {
	s := 0.0
	for k := m.off[i]; k < m.off[i+1]; k++ {
		s += m.w[k]
	}
	return s
}

// RowSumSquares returns Σ_j w_ij² for row i.
func (m *Matrix) RowSumSquares(i int) float64 {
	s := 0.0
	for k := m.off[i]; k < m.off[i+1]; k++ {
		s += m.w[k] * m.w[k]
	}
	return s
}
