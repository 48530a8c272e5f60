package geostat

import (
	"context"
	"math/rand"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kfunc"
)

// Regime classifies a dataset against a K-function envelope (Figure 2).
type Regime = kfunc.Regime

// Regime values.
const (
	RegimeRandom    = kfunc.Random
	RegimeClustered = kfunc.Clustered
	RegimeDispersed = kfunc.Dispersed
)

// KPlot is a K-function plot: observed curve plus Monte-Carlo envelopes
// (Definition 3 of the paper).
type KPlot = kfunc.Plot

// STKPlot is a spatiotemporal K-function plot (Figure 6).
type STKPlot = kfunc.STPlot

// KFunction computes K_P(s) (Definition 2; ordered pairs, i≠j) with the
// single-threshold range-query method.
func KFunction(pts []Point, s float64) int { return kfunc.GridIndexed(pts, s) }

// KFunctionNaive computes K_P(s) with the O(n²) baseline.
func KFunctionNaive(d *Dataset, s float64) int { return kfunc.Naive(d.Columns(), s) }

// KFunctionKDTree computes K_P(s) with kd-tree range counts.
func KFunctionKDTree(pts []Point, s float64) int { return kfunc.KDTreeIndexed(pts, s) }

// KFunctionBallTree computes K_P(s) with ball-tree range counts.
func KFunctionBallTree(pts []Point, s float64) int { return kfunc.BallTreeIndexed(pts, s) }

// KFunctionRTree computes K_P(s) with STR R-tree range counts (the index
// layout of production GIS engines).
func KFunctionRTree(pts []Point, s float64) int { return kfunc.RTreeIndexed(pts, s) }

// KFunctionCurve computes K_P at every threshold (ascending) in one pass
// over the close pairs, reading the dataset's coordinate columns in place.
func KFunctionCurve(d *Dataset, thresholds []float64, workers int) ([]int, error) {
	cols := d.Columns()
	return kfunc.Curve(nil, cols.X, cols.Y, thresholds, workers)
}

// KFunctionCurveCtx is KFunctionCurve over a point slice, with cooperative
// cancellation: workers check ctx between chunks of the pair enumeration
// and the call returns ctx.Err() (with a nil slice) when it fires. The
// points are copied into coordinate columns once, at this edge. Plot
// construction is cancellable too — set KPlotOptions.Ctx.
func KFunctionCurveCtx(ctx context.Context, pts []Point, thresholds []float64, workers int) ([]int, error) {
	xs, ys := geom.SplitXY(pts)
	return kfunc.Curve(ctx, xs, ys, thresholds, workers)
}

// KPlotOptions configures KFunctionPlot.
type KPlotOptions = kfunc.PlotOptions

// KFunctionPlot computes a K-function plot with min/max envelopes over CSR
// simulations (Definition 3).
func KFunctionPlot(pts []Point, opt KPlotOptions, rng *rand.Rand) (*KPlot, error) {
	return kfunc.MakePlot(pts, opt, rng)
}

// KFunctionPlotDataset is KFunctionPlot over a Dataset: the observed curve
// reads the dataset's coordinate columns in place (no []Point copy) and a
// zero opt.Window means the dataset's bounds. Cancellation is opt.Ctx.
func KFunctionPlotDataset(d *Dataset, opt KPlotOptions, rng *rand.Rand) (*KPlot, error) {
	return kfunc.MakePlotColumns(d.Columns(), opt, rng)
}

// KFunctionPlotWithNull computes a K-function plot against a caller-chosen
// null model: simulate is invoked per envelope run. Pair it with
// SampleFromIntensity over a fitted KDV for the inhomogeneous null that
// separates first-order intensity from true interaction.
func KFunctionPlotWithNull(d *Dataset, opt KPlotOptions, simulate func() *Dataset) (*KPlot, error) {
	return kfunc.MakePlotWithNull(d.Columns(), opt, func() dataset.Columns { return simulate().Columns() })
}

// KEstimate converts a raw pair count to the classical estimator
// K̂(s) = |A|·count/(n(n−1)).
func KEstimate(count, n int, area float64) float64 { return kfunc.Estimate(count, n, area) }

// BesagL is the variance-stabilised transform L(s) = sqrt(K̂(s)/π); under
// CSR, L(s) ≈ s.
func BesagL(kHat float64) float64 { return kfunc.BesagL(kHat) }

// KFunctionBorderCorrected computes the border-corrected estimator (only
// sources whose s-disc lies inside window count).
func KFunctionBorderCorrected(d *Dataset, s float64, window BBox) (kHat float64, eligible int, ok bool) {
	return kfunc.BorderCorrected(d.Columns(), s, window)
}

// CrossKFunction counts (a, b) pairs within distance s — the bivariate
// K-function numerator ("do type-a events cluster around type-b events?").
func CrossKFunction(a, b *Dataset, s float64) int {
	return kfunc.CrossCount(a.Columns(), b.Columns(), s)
}

// CrossKFunctionCurve evaluates the cross count at every threshold in one
// pass.
func CrossKFunctionCurve(a, b *Dataset, thresholds []float64) ([]int, error) {
	ac, bc := a.Columns(), b.Columns()
	return kfunc.CrossCurve(ac.X, ac.Y, bc.X, bc.Y, thresholds)
}

// CrossKFunctionPlot computes the bivariate K-function plot under the
// random-labelling null (type labels shuffled over the pooled points).
// workers fans the relabellings out across goroutines (0/1 serial, <0
// GOMAXPROCS) with envelopes bit-identical for every worker count.
func CrossKFunctionPlot(a, b *Dataset, thresholds []float64, sims, workers int, rng *rand.Rand) (*KPlot, error) {
	return kfunc.CrossPlot(a.Columns(), b.Columns(), thresholds, sims, workers, rng)
}

// KnoxResult is the Knox space-time interaction test.
type KnoxResult = kfunc.KnoxResult

// KnoxTest counts event pairs of d simultaneously close in space (≤ s) and
// time (≤ t, over d.Times()) and tests the count against random time
// permutations — the classic closed-form screen that Equation 8's K(s,t)
// surface generalises. workers fans the permutations out (0/1 serial, <0
// GOMAXPROCS) with the result bit-identical for every worker count.
func KnoxTest(d *Dataset, s, t float64, perms, workers int, rng *rand.Rand) (*KnoxResult, error) {
	return kfunc.Knox(d.Columns(), d.Times(), s, t, perms, workers, rng)
}

// QuadratResult is a chi-square quadrat test of complete spatial
// randomness.
type QuadratResult = kfunc.QuadratResult

// QuadratTest counts points in an nx×ny quadrat grid over window and
// chi-square-tests the counts against CSR (two-sided: clustering inflates
// the statistic, regularity deflates it). Every point must lie in window.
func QuadratTest(d *Dataset, window BBox, nx, ny int) (*QuadratResult, error) {
	return kfunc.QuadratTest(d.Columns(), window, nx, ny)
}

// ClarkEvansResult is the Clark-Evans nearest-neighbour CSR test.
type ClarkEvansResult = kfunc.ClarkEvansResult

// ClarkEvans computes the Clark-Evans aggregation index R with its normal
// test (R<1 clustered, R>1 dispersed). Every point must lie in window.
func ClarkEvans(d *Dataset, window BBox) (*ClarkEvansResult, error) {
	return kfunc.ClarkEvans(d.Columns(), window)
}

// STKFunction computes the spatiotemporal K-function K(s, t) (Equation 8)
// of d's events and times by the O(n²) definition; a d without times is
// an error.
func STKFunction(d *Dataset, s, t float64) (int, error) {
	return kfunc.STNaive(d.Columns(), d.Times(), s, t)
}

// STKFunctionSurface computes K(s_α, t_β) of d's events and times for all
// threshold combinations in one pass; entry α·len(tThresholds)+β is
// K(s_α, t_β).
func STKFunctionSurface(d *Dataset, sThresholds, tThresholds []float64, workers int) ([]int, error) {
	cols := d.Columns()
	return kfunc.STSurface(cols.X, cols.Y, d.Times(), sThresholds, tThresholds, workers)
}

// STKFunctionPlot computes the Figure 6 surface-plus-envelopes for a
// spatiotemporal dataset.
func STKFunctionPlot(d *Dataset, sThresholds, tThresholds []float64, sims, workers int, rng *rand.Rand) (*STKPlot, error) {
	return kfunc.MakeSTPlot(d, sThresholds, tThresholds, sims, workers, rng)
}
