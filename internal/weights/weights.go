// Package weights builds the sparse spatial weight matrices that the
// autocorrelation statistics (Moran's I, Getis-Ord G — Table 1 of the
// paper) are defined over: k-nearest-neighbour and distance-band
// neighbourhoods, optionally row-standardised.
package weights

import (
	"fmt"
	"math"
	"sync/atomic"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/index/kdtree"
	"geostat/internal/parallel"
)

// Matrix is a sparse spatial weight matrix in CSR layout. Self-weights are
// always zero (w_ii = 0), per the statistics' definitions. The pattern
// (off, col) is read-only and may be shared with other matrices built over
// the same dataset; the weights w are this matrix's own, so RowStandardize
// never shows through to another holder of the pattern.
type Matrix struct {
	N   int
	off []int32
	col []int32
	w   []float64
}

// maxNeighbors is the most nonzeros a Matrix can address: its row offsets
// are int32. A variable so the band test can reach it with a small input.
var maxNeighbors int64 = math.MaxInt32

// TooDenseError reports a neighbourhood with more nonzeros than a Matrix
// can address. Neighbors is the count that overflowed: exact for kNN (n·k,
// known before any query runs); for a distance band the running total when
// its counting pass stopped — at the row that crossed the limit, plus the
// rows other workers had in flight.
type TooDenseError struct {
	N         int
	Neighbors int64
}

func (e *TooDenseError) Error() string {
	return fmt.Sprintf("weights: %d neighbours over n=%d sites exceed the limit of %d; use a smaller k or radius",
		e.Neighbors, e.N, maxNeighbors)
}

// KNNDataset returns the binary k-nearest-neighbour weight matrix over
// d's sites: w_ij = 1 if j is one of i's k nearest points (asymmetric in
// general). workers is the parallelism degree (0/1 serial, <0
// GOMAXPROCS); rows are computed independently (the kd-tree is read-only
// once built) and written in site order, so the matrix is bit-identical
// for every worker count.
//
// It shares what the snapshot already knows: the kd-tree is d.Tree() and
// the pattern is d's memoised adjacency when the last one asked of d was
// the same k (hit reports that). The matrix returned is fresh either way
// — only its read-only pattern is shared.
func KNNDataset(d *dataset.Dataset, k, workers int) (*Matrix, bool, error) {
	if err := checkK(d.N(), k); err != nil {
		return nil, false, err
	}
	adj, hit, err := d.Adjacency(dataset.AdjacencyKey{Scheme: "knn", Param: uint64(k)}, func() (*dataset.Adjacency, error) {
		cols := d.Columns()
		tree, _ := d.Tree()
		return knnPattern(tree, cols.X, cols.Y, k, workers), nil
	})
	return newMatrix(adj), hit, err
}

func checkK(n, k int) error {
	if k < 1 {
		return fmt.Errorf("weights: k must be >= 1, got %d", k)
	}
	if k >= n {
		return fmt.Errorf("weights: k=%d must be < n=%d", k, n)
	}
	if nnz := int64(n) * int64(k); nnz > maxNeighbors {
		return &TooDenseError{N: n, Neighbors: nnz}
	}
	return nil
}

// knnPattern is the kNN adjacency of the sites over their kd-tree: row i is
// the first k of i's k+1 nearest other than i itself (the query point is
// its own nearest at distance 0; among more than k coincident sites it may
// not be returned at all, and the row is then simply the first k).
func knnPattern(tree *kdtree.Tree, xs, ys []float64, k, workers int) *dataset.Adjacency {
	off := make([]int32, len(xs)+1)
	for i := range off {
		off[i] = int32(i * k)
	}
	return fromQueries(off, workers, func(s *kdtree.Scratch, i int, row []int32) {
		idx, _ := tree.KNearest(geom.Point{X: xs[i], Y: ys[i]}, k+1, s)
		m := 0
		for _, j := range idx {
			if j != i && m < k {
				row[m] = int32(j)
				m++
			}
		}
	})
}

// DistanceBandDataset returns the binary distance-band weight matrix over
// d's sites: w_ij = 1 if 0 < dist(i, j) <= radius (symmetric). Rows are
// computed independently over a read-only grid index, so like
// KNNDataset's the matrix is bit-identical for every worker count. The
// pattern is memoised on d like KNNDataset's (keyed by the radius's bits;
// a band denser than the snapshot's retention bound is built per call).
func DistanceBandDataset(d *dataset.Dataset, radius float64, workers int) (*Matrix, bool, error) {
	if err := checkRadius(radius); err != nil {
		return nil, false, err
	}
	adj, hit, err := d.Adjacency(dataset.AdjacencyKey{Scheme: "band", Param: math.Float64bits(radius)}, func() (*dataset.Adjacency, error) {
		cols := d.Columns()
		return bandPattern(cols.X, cols.Y, radius, workers)
	})
	return newMatrix(adj), hit, err
}

func checkRadius(radius float64) error {
	if !(radius > 0) {
		return fmt.Errorf("weights: radius must be positive, got %g", radius)
	}
	return nil
}

// bandPattern is the distance-band adjacency of the sites. Row lengths are
// not known in advance, so it runs bandRow twice: a counting pass that
// fixes the offsets — and refuses, before any column storage exists, as
// soon as the running total passes maxNeighbors — then the pass that
// writes each row in place.
func bandPattern(xs, ys []float64, radius float64, workers int) (*dataset.Adjacency, error) {
	n := len(xs)
	idx := gridindex.NewColumns(xs, ys, radius)
	off := make([]int32, n+1)
	var total atomic.Int64
	parallel.For(n, workers, func(i int) {
		if total.Load() > maxNeighbors {
			return // already refused: the rows left cost a load each
		}
		deg := bandRow(idx, geom.Point{X: xs[i], Y: ys[i]}, int32(i), radius, nil)
		off[i+1] = int32(deg)
		total.Add(int64(deg))
	})
	if nnz := total.Load(); nnz > maxNeighbors {
		return nil, &TooDenseError{N: n, Neighbors: nnz}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	return fromQueries(off, workers, func(_ *kdtree.Scratch, i int, row []int32) {
		bandRow(idx, geom.Point{X: xs[i], Y: ys[i]}, int32(i), radius, row)
	}), nil
}

// bandRow counts the indexed points other than self within radius of q
// (boundary inclusive) and, when row is non-nil, writes them to it in the
// order the index's RangeQuery reports them, stopping once row — sized by
// the counting pass — is full. One loop serves both passes, so they always
// agree. The in-range test feeds an add, not a branch: about a third of a
// cell neighbourhood's candidates fall inside the disc, which a branch
// predictor cannot learn.
func bandRow(idx *gridindex.Index, q geom.Point, self int32, radius float64, row []int32) int {
	xs, ys, ids := idx.Columns()
	r2 := radius * radius
	cx0, cx1, cy0, cy1 := idx.CellSpan(q, radius)
	m := 0
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			lo, hi := idx.Cell(cx, cy)
			cys, cids := ys[lo:hi], ids[lo:hi]
			for j, x := range xs[lo:hi] {
				dx := x - q.X
				dy := cys[j] - q.Y
				in := 0
				if dx*dx+dy*dy <= r2 {
					in = 1
				}
				if cids[j] == self {
					in = 0
				}
				if row != nil {
					if m == len(row) {
						return m
					}
					row[m] = cids[j]
				}
				m += in
			}
		}
	}
	return m
}

// fromQueries fills the CSR pattern whose row offsets are off: row(s, i,
// dst) writes site i's neighbours into dst, its slice of the column array.
// s is per-worker kd-tree query scratch.
func fromQueries(off []int32, workers int, row func(s *kdtree.Scratch, i int, dst []int32)) *dataset.Adjacency {
	n := len(off) - 1
	col := make([]int32, off[n])
	parallel.ForScratch(n, workers,
		func() *kdtree.Scratch { return new(kdtree.Scratch) },
		func(s *kdtree.Scratch, i int) { row(s, i, col[off[i]:off[i+1]]) })
	return &dataset.Adjacency{Off: off, Col: col}
}

// newMatrix wraps a (possibly shared) pattern with unit weights of its own;
// a nil pattern — the constructor failed — gives a nil matrix.
func newMatrix(adj *dataset.Adjacency) *Matrix {
	if adj == nil {
		return nil
	}
	w := make([]float64, len(adj.Col))
	for i := range w {
		w[i] = 1
	}
	return &Matrix{N: len(adj.Off) - 1, off: adj.Off, col: adj.Col, w: w}
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
