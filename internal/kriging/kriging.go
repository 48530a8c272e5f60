package kriging

import (
	"fmt"
	"math"
	"sync/atomic"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/kdtree"
	"geostat/internal/linalg"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Options configures ordinary kriging.
type Options struct {
	// Grid is the output raster.
	Grid geom.PixelGrid
	// Variogram is the fitted model (see Empirical + Fit).
	Variogram Variogram
	// Neighbors is the local neighbourhood size k; each pixel solves a
	// (k+1)×(k+1) system over its k nearest samples. 0 means global kriging
	// (every sample in one big system — the O(n³) cost the paper warns
	// about; only sensible for small n).
	Neighbors int
	// Workers parallelises rows; 0/1 serial, <0 GOMAXPROCS.
	Workers int
}

// Interpolate performs ordinary kriging of d's values onto the grid. For
// each pixel it solves the ordinary-kriging system
//
//	[ Γ  1 ] [λ]   [γ(q)]
//	[ 1ᵀ 0 ] [μ] = [ 1  ]
//
// where Γ is the sample-to-sample semivariance matrix of the neighbourhood
// and γ(q) the sample-to-pixel semivariances; the estimate is Σ λ_i·z_i.
func Interpolate(d *dataset.Dataset, opt Options) (*raster.Grid, error) {
	if !d.HasValues() {
		return nil, fmt.Errorf("kriging: dataset has no values")
	}
	if d.N() < 2 {
		return nil, fmt.Errorf("kriging: need at least 2 samples, got %d", d.N())
	}
	if opt.Grid.NX <= 0 || opt.Grid.NY <= 0 {
		return nil, fmt.Errorf("kriging: grid not initialised")
	}
	if opt.Neighbors < 0 {
		return nil, fmt.Errorf("kriging: negative Neighbors")
	}
	if !(opt.Variogram.Range > 0) {
		return nil, fmt.Errorf("kriging: variogram not fitted (Range %g)", opt.Variogram.Range)
	}
	k := opt.Neighbors
	if k == 0 || k > d.N() {
		k = d.N()
	}
	cols := d.Columns()
	vals := d.Values()
	tree, _ := d.Tree()
	out := raster.NewGrid(opt.Grid)
	ny, nx := opt.Grid.NY, opt.Grid.NX

	// Each worker reuses one solveState (factorisation matrix + RHS) across
	// all of its rows; dynamic chunking through internal/parallel.
	var firstErr atomic.Value
	parallel.ForScratch(ny, opt.Workers,
		func() *solveState { return newSolveState(k) },
		func(st *solveState, iy int) {
			qy := opt.Grid.CenterY(iy)
			row := out.Values[iy*nx : (iy+1)*nx]
			for ix := range row {
				q := geom.Point{X: opt.Grid.CenterX(ix), Y: qy}
				idx, d2 := tree.KNearest(q, k, &st.scratch)
				v, err := st.estimateFrom(cols.X, cols.Y, vals, idx, d2, opt.Variogram)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				row[ix] = v
			}
		})
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	return out, nil
}

// solveState is per-worker scratch for the kriging systems.
type solveState struct {
	mat     *linalg.Matrix
	rhs     []float64
	scratch kdtree.Scratch
}

func newSolveState(k int) *solveState {
	return &solveState{
		mat: linalg.NewMatrix(k+1, k+1),
		rhs: make([]float64, k+1),
	}
}

// estimateFrom solves the ordinary-kriging system over an explicit
// neighbourhood of the samples (xs[i], ys[i], vals[i]): idx with squared
// distances d2 to the estimated site, ascending.
func (st *solveState) estimateFrom(xs, ys, vals []float64, idx []int, d2 []float64, v Variogram) (float64, error) {
	m := len(idx)
	if m == 0 {
		return 0, fmt.Errorf("kriging: no neighbours found")
	}
	// Coincident pixel: exact sample value.
	if d2[0] < 1e-18 {
		return vals[idx[0]], nil
	}
	// Degenerate neighbourhood (all samples identical locations) falls back
	// to the mean.
	n := m + 1
	mat := st.mat
	if mat.Rows != n {
		mat = linalg.NewMatrix(n, n)
	}
	rhs := st.rhs[:0]
	for i := 0; i < m; i++ {
		pi := geom.Point{X: xs[idx[i]], Y: ys[idx[i]]}
		for j := 0; j < m; j++ {
			mat.Set(i, j, v.Eval(pi.Dist(geom.Point{X: xs[idx[j]], Y: ys[idx[j]]})))
		}
		mat.Set(i, m, 1)
		mat.Set(m, i, 1)
		rhs = append(rhs, v.Eval(math.Sqrt(d2[i])))
	}
	mat.Set(m, m, 0)
	rhs = append(rhs, 1)
	if err := linalg.SolveInPlace(mat, rhs); err != nil {
		// Singular systems arise from duplicate sample sites; fall back to
		// the neighbourhood mean rather than failing the whole surface.
		sum := 0.0
		for _, i := range idx {
			sum += vals[i]
		}
		return sum / float64(m), nil
	}
	est := 0.0
	for i := 0; i < m; i++ {
		est += rhs[i] * vals[idx[i]]
	}
	return est, nil
}
