package idw

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/kdtree"
)

// CVResult summarises a leave-one-out cross-validation: each sample is
// predicted from its k nearest other samples.
type CVResult struct {
	RMSE      float64
	MAE       float64
	Residuals []float64 // predicted − observed, per sample
}

// LOOCV cross-validates kNN-IDW with the given power and neighbourhood,
// the standard way to tune (power, k) without ground truth.
func LOOCV(d *dataset.Dataset, power float64, k int) (*CVResult, error) {
	if !d.HasValues() {
		return nil, fmt.Errorf("idw: dataset has no values")
	}
	if !(power > 0) {
		return nil, fmt.Errorf("idw: power must be positive, got %g", power)
	}
	n := d.N()
	if n < 2 {
		return nil, fmt.Errorf("idw: need at least 2 samples, got %d", n)
	}
	if k <= 0 || k > n-1 {
		k = n - 1
	}
	cols := d.Columns()
	vals := d.Values()
	tree, _ := d.Tree()
	res := &CVResult{Residuals: make([]float64, n)}
	var scratch kdtree.Scratch
	for i := range vals {
		idx, d2 := tree.KNearest(geom.Point{X: cols.X[i], Y: cols.Y[i]}, k+1, &scratch)
		num, den := 0.0, 0.0
		exact := math.NaN()
		taken := 0
		for j, id := range idx {
			if id == i {
				continue
			}
			if taken == k {
				break
			}
			taken++
			if d2[j] < epsCoincident {
				exact = vals[id] // duplicate site: its twin's value
				break
			}
			w := weight(d2[j], power)
			num += w * vals[id]
			den += w
		}
		var pred float64
		switch {
		case !math.IsNaN(exact):
			pred = exact
		case den > 0:
			pred = num / den
		default:
			return nil, fmt.Errorf("idw: LOOCV at sample %d: no usable neighbours", i)
		}
		res.Residuals[i] = pred - vals[i]
	}
	var sq, ab float64
	for _, r := range res.Residuals {
		sq += r * r
		ab += math.Abs(r)
	}
	res.RMSE = math.Sqrt(sq / float64(n))
	res.MAE = ab / float64(n)
	return res, nil
}
