package kfunc

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/kdtree"
	"geostat/internal/stat"
)

// Classical closed-form CSR tests — the quick screens domain experts run
// before the full Monte-Carlo K-function plot (Definition 3). Both agree
// with the K-plot's verdict on clustered/random/dispersed data and cost
// O(n) / O(n log n) instead of L·O(K-curve).

// QuadratResult is a chi-square quadrat test of CSR.
type QuadratResult struct {
	ChiSquare float64 // Σ (observed − expected)² / expected
	DF        int     // quadrats − 1
	// P is the two-sided p-value: clustering inflates the statistic
	// (upper tail) while regular/dispersed patterns deflate it (lower
	// tail), so both departures count as evidence against CSR.
	P        float64
	VMR      float64 // variance-to-mean ratio of quadrat counts: >1 clustered, <1 dispersed
	Quadrats int
}

// Regime classifies the test at the given significance level.
func (q *QuadratResult) Regime(alpha float64) Regime {
	if q.P >= alpha {
		return Random
	}
	if q.VMR > 1 {
		return Clustered
	}
	return Dispersed
}

// outside returns an error naming the first point of cols outside window
// (boundary inclusive): the CSR screens count a window's points, so a
// point beyond it has no quadrat and no share of the window's area.
func outside(cols dataset.Columns, window geom.BBox) error {
	for i := range cols.X {
		if p := (geom.Point{X: cols.X[i], Y: cols.Y[i]}); !window.Contains(p) {
			return fmt.Errorf("kfunc: point %d (%g, %g) lies outside the window", i, p.X, p.Y)
		}
	}
	return nil
}

// QuadratTest divides window into nx×ny quadrats, counts points per
// quadrat, and tests the counts against the CSR expectation with a
// chi-square test. Every point must lie in window.
func QuadratTest(cols dataset.Columns, window geom.BBox, nx, ny int) (*QuadratResult, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("kfunc: quadrat grid must be at least 1x1, got %dx%d", nx, ny)
	}
	n := cols.N()
	q := nx * ny
	if n < 2*q {
		return nil, fmt.Errorf("kfunc: %d points too few for %d quadrats (want ≥ %d)", n, q, 2*q)
	}
	if noWindow(window) {
		return nil, fmt.Errorf("kfunc: degenerate window")
	}
	if err := outside(cols, window); err != nil {
		return nil, err
	}
	grid := geom.NewPixelGrid(window, nx, ny)
	counts := make([]float64, q)
	for i := range cols.X {
		ix, iy, _ := grid.Locate(geom.Point{X: cols.X[i], Y: cols.Y[i]})
		counts[grid.Index(ix, iy)]++
	}
	expected := float64(n) / float64(q)
	chi2 := 0.0
	for _, c := range counts {
		d := c - expected
		chi2 += d * d / expected
	}
	mean, std := stat.MeanStd(counts)
	upper := stat.ChiSquareSurvival(q-1, chi2)
	p := 2 * math.Min(upper, 1-upper)
	if p > 1 {
		p = 1
	}
	res := &QuadratResult{
		ChiSquare: chi2,
		DF:        q - 1,
		P:         p,
		VMR:       std * std / mean,
		Quadrats:  q,
	}
	return res, nil
}

// ClarkEvansResult is the Clark-Evans nearest-neighbour test of CSR.
type ClarkEvansResult struct {
	R float64 // observed/expected mean NN distance: <1 clustered, >1 dispersed
	Z float64 // normal test statistic
	P float64 // two-sided p-value
}

// Regime classifies the test at the given significance level.
func (c *ClarkEvansResult) Regime(alpha float64) Regime {
	if c.P >= alpha {
		return Random
	}
	if c.R < 1 {
		return Clustered
	}
	return Dispersed
}

// ClarkEvans computes the Clark-Evans aggregation index: the ratio of the
// observed mean nearest-neighbour distance to its CSR expectation
// 1/(2·sqrt(λ)), with the classical normal test
// z = (r̄_obs − r̄_exp) / (0.26136 / sqrt(n·λ)).
// No edge correction is applied (fine for windows much larger than the
// mean NN distance; the K-plot is the edge-aware alternative). Every point
// must lie in window. The neighbour queries run on cols.Tree(), a dataset
// snapshot's memoised kd-tree.
func ClarkEvans(cols dataset.Columns, window geom.BBox) (*ClarkEvansResult, error) {
	n := cols.N()
	if n < 3 {
		return nil, fmt.Errorf("kfunc: Clark-Evans needs at least 3 points, got %d", n)
	}
	if noWindow(window) {
		return nil, fmt.Errorf("kfunc: degenerate window")
	}
	if err := outside(cols, window); err != nil {
		return nil, err
	}
	tree, _ := cols.Tree()
	sum := 0.0
	var scratch kdtree.Scratch
	for i := range cols.X {
		_, d2 := tree.KNearest(geom.Point{X: cols.X[i], Y: cols.Y[i]}, 2, &scratch) // self + nearest other
		sum += math.Sqrt(d2[len(d2)-1])
	}
	rObs := sum / float64(n)
	lambda := float64(n) / window.Area()
	rExp := 1 / (2 * math.Sqrt(lambda))
	se := 0.26136 / math.Sqrt(float64(n)*lambda)
	z := (rObs - rExp) / se
	return &ClarkEvansResult{
		R: rObs / rExp,
		Z: z,
		P: 2 * stat.NormalSurvival(math.Abs(z)),
	}, nil
}

// LTransform converts the plot's raw ordered-pair counts into centred
// Besag L curves: L̂(s) − s for the observed curve and both envelopes,
// using the classical estimator K̂ = |A|·count/(n(n−1)). Under CSR the
// centred curve hovers around 0, making departures readable at every
// scale (the raw K grows like πs² and hides small-s structure).
func (p *Plot) LTransform(n int, area float64) (l, lo, hi []float64) {
	l = make([]float64, len(p.S))
	lo = make([]float64, len(p.S))
	hi = make([]float64, len(p.S))
	for i, s := range p.S {
		l[i] = BesagL(Estimate(int(p.K[i]), n, area)) - s
		lo[i] = BesagL(Estimate(int(p.Lo[i]), n, area)) - s
		hi[i] = BesagL(Estimate(int(p.Hi[i]), n, area)) - s
	}
	return l, lo, hi
}
