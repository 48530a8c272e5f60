package kriging

import (
	"fmt"
	"math"
	"sync/atomic"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/parallel"
)

// CVResult summarises a leave-one-out cross-validation of an interpolator:
// each sample is predicted from its neighbours with itself withheld.
type CVResult struct {
	RMSE      float64
	MAE       float64
	Residuals []float64 // predicted − observed, per sample
}

// cvScratch is the per-worker state of a parallel LOOCV: one kriging solve
// state plus reusable neighbourhood buffers.
type cvScratch struct {
	st     *solveState
	idxBuf []int
	d2Buf  []float64
}

// LOOCVWorkers cross-validates ordinary kriging with the given variogram
// and neighbourhood size: sample i is estimated from its k nearest other
// samples. The headline use is comparing variogram models or neighbourhood
// sizes without ground truth. Workers sets the parallelism (0/1 serial,
// <0 GOMAXPROCS). Residuals are written per sample index, so the result is
// bit-identical for every worker count.
func LOOCVWorkers(d *dataset.Dataset, v Variogram, neighbors, workers int) (*CVResult, error) {
	if !d.HasValues() {
		return nil, fmt.Errorf("kriging: dataset has no values")
	}
	n := d.N()
	if n < 3 {
		return nil, fmt.Errorf("kriging: need at least 3 samples, got %d", n)
	}
	if !(v.Range > 0) {
		return nil, fmt.Errorf("kriging: variogram not fitted (Range %g)", v.Range)
	}
	k := neighbors
	if k <= 0 || k > n-1 {
		k = n - 1
	}
	cols := d.Columns()
	vals := d.Values()
	tree, _ := d.Tree()
	res := &CVResult{Residuals: make([]float64, n)}
	var firstErr atomic.Value
	parallel.ForScratch(n, workers,
		func() *cvScratch {
			return &cvScratch{
				st:     newSolveState(k),
				idxBuf: make([]int, 0, k+1),
				d2Buf:  make([]float64, 0, k+1),
			}
		},
		func(s *cvScratch, i int) {
			p := geom.Point{X: cols.X[i], Y: cols.Y[i]}
			// k+1 nearest includes the sample itself; withhold it. Duplicate
			// sites keep their twin (that is the honest LOOCV answer there).
			idx, d2 := tree.KNearest(p, k+1, &s.st.scratch)
			s.idxBuf = s.idxBuf[:0]
			s.d2Buf = s.d2Buf[:0]
			for j, id := range idx {
				if id == i {
					continue
				}
				s.idxBuf = append(s.idxBuf, id)
				s.d2Buf = append(s.d2Buf, d2[j])
			}
			if len(s.idxBuf) > k {
				s.idxBuf = s.idxBuf[:k]
				s.d2Buf = s.d2Buf[:k]
			}
			pred, err := s.st.estimateFrom(cols.X, cols.Y, vals, s.idxBuf, s.d2Buf, v)
			if err != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("kriging: LOOCV at sample %d: %w", i, err))
				return
			}
			res.Residuals[i] = pred - vals[i]
		})
	if err, _ := firstErr.Load().(error); err != nil {
		return nil, err
	}
	finishCV(res)
	return res, nil
}

func finishCV(res *CVResult) {
	var sq, ab float64
	for _, r := range res.Residuals {
		sq += r * r
		ab += math.Abs(r)
	}
	n := float64(len(res.Residuals))
	res.RMSE = math.Sqrt(sq / n)
	res.MAE = ab / n
}
