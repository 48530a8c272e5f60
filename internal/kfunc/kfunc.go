// Package kfunc implements Ripley's K-function (Definition 2 of the paper)
// and its plot with Monte-Carlo envelopes (Definition 3), plus the network
// (§2.3) and spatiotemporal (Equation 8) variants.
//
// Conventions. Equation 2 counts ordered pairs; this package counts
// ordered pairs with i ≠ j (excluding the n self-pairs, which add a
// constant and carry no spatial information — the spatstat convention).
// Raw counts are what Definitions 2–3 compare against envelopes; the
// normalised estimator K̂(s) = |A|·count/(n(n−1)) and Besag's L-transform
// are provided for users who want the classical statistics.
//
// Acceleration families from §2.3:
//
//   - Naive: the O(n²) double loop per threshold.
//   - Indexed: Σ_i RangeCount(p_i, s) over a grid or kd-tree index — the
//     range-query-based family.
//   - Curve: all D thresholds in ONE pass — every unordered pair within
//     s_max is visited once, histogrammed by squared distance, and the
//     cumulative histogram (doubled) yields every K(s_d) simultaneously.
//     This is the sharing observation of §2.4 applied to K-functions, and
//     the one columnar pipeline (pipeline.go) behind Curve, the plots'
//     observed curves and every envelope simulation.
//   - Workers > 1 parallelises the sweep (the parallel family).
//
// One predicate. A pair at squared distance d² is within s iff d² <= s·s,
// in every method of the package: Naive, the index range counts and the
// curves (squaredBinner) agree pair for pair, also on rounded coordinates
// where sqrt(d²) <= s would not.
package kfunc

import (
	"context"
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/balltree"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/index/kdtree"
	"geostat/internal/index/rtree"
)

// Naive computes K_P(s) (ordered pairs, i≠j) by the O(n²) double loop —
// the baseline whose cost §1 of the paper highlights.
func Naive(cols dataset.Columns, s float64) int {
	s2 := s * s
	xs, ys := cols.X, cols.Y
	count := 0
	for i := range xs {
		for j := range xs {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if i != j && dx*dx+dy*dy <= s2 {
				count++
			}
		}
	}
	return count
}

// GridIndexed computes K_P(s) as Σ_i |R(p_i)|−1 using a uniform grid index
// (the range-query-based method of §2.3).
func GridIndexed(pts []geom.Point, s float64) int {
	idx := gridindex.New(pts, s)
	count := 0
	for _, p := range pts {
		count += idx.RangeCount(p, s) - 1 // exclude self
	}
	return count
}

// KDTreeIndexed computes K_P(s) using a kd-tree range count per point.
func KDTreeIndexed(pts []geom.Point, s float64) int {
	tree := kdtree.New(pts)
	count := 0
	for _, p := range pts {
		count += tree.RangeCount(p, s) - 1
	}
	return count
}

// BallTreeIndexed computes K_P(s) using a ball-tree range count per point.
func BallTreeIndexed(pts []geom.Point, s float64) int {
	tree := balltree.New(pts)
	count := 0
	for _, p := range pts {
		count += tree.RangeCount(p, s) - 1
	}
	return count
}

// RTreeIndexed computes K_P(s) using an STR R-tree range count per point —
// the index layout of production GIS engines.
func RTreeIndexed(pts []geom.Point, s float64) int {
	tree := rtree.New(pts)
	count := 0
	for _, p := range pts {
		count += tree.RangeCount(p, s) - 1
	}
	return count
}

// Curve computes the K-function at every threshold in thresholds
// (ascending) in a single pass: every unordered pair within the largest
// threshold of the points (xs[i], ys[i]) is visited once by a half-pair
// sweep over a cell-ordered copy of the points and histogrammed by squared
// distance (see pipeline.go). Workers parallelises the sweep (0/1 serial,
// <0 = GOMAXPROCS). Workers check ctx (nil means no cancellation) between
// blocks of the sweep and the call returns ctx.Err() (with a nil slice)
// when it fires.
func Curve(ctx context.Context, xs, ys []float64, thresholds []float64, workers int) ([]int, error) {
	if err := checkThresholds(thresholds); err != nil {
		return nil, err
	}
	counts := make([]int, len(thresholds))
	var c cells
	if err := c.curve(ctx, xs, ys, squaredBinner(thresholds), workers, counts); err != nil {
		return nil, err
	}
	return counts, nil
}

// NaiveCurve computes the K-function at every threshold with the O(D·n²)
// approach used by off-the-shelf packages: one full double loop per
// threshold. It exists as the baseline for the C1 experiment.
func NaiveCurve(cols dataset.Columns, thresholds []float64) ([]int, error) {
	if err := checkThresholds(thresholds); err != nil {
		return nil, err
	}
	out := make([]int, len(thresholds))
	for i, s := range thresholds {
		out[i] = Naive(cols, s)
	}
	return out, nil
}

// Estimate converts a raw ordered-pair count into the classical unbiased
// estimator K̂(s) = |A|·count/(n·(n−1)) for a window of the given area.
func Estimate(count, n int, area float64) float64 {
	if n < 2 {
		return 0
	}
	return area * float64(count) / (float64(n) * float64(n-1))
}

// BesagL converts K̂ to Besag's variance-stabilised L(s) = sqrt(K̂/π).
// Under CSR, L(s) ≈ s, making departures easy to read.
func BesagL(kHat float64) float64 {
	if kHat <= 0 {
		return 0
	}
	return math.Sqrt(kHat / math.Pi)
}

// BorderCorrected computes the border-corrected estimator: only points
// whose distance to the window boundary is at least s contribute as
// sources (their discs lie fully inside the window, so their counts are
// unbiased). It returns the corrected K̂(s) and the number of eligible
// source points; ok=false means no point is eligible at this s.
//
// Source eligibility is decided chunk-wise over the columnar layout: a
// chunk whose bounding box lies entirely within s of some window edge has
// no eligible sources and is skipped outright, and one whose box clears
// every edge by at least s needs no per-point boundary tests.
func BorderCorrected(cols dataset.Columns, s float64, window geom.BBox) (kHat float64, eligible int, ok bool) {
	n := cols.N()
	if n < 2 {
		return 0, 0, false
	}
	idx := gridindex.NewColumns(cols.X, cols.Y, s)
	total := 0
	for _, ch := range cols.Chunks {
		bb := ch.BBox
		// Every point within s of one edge — no eligible sources here.
		if bb.MaxX-window.MinX < s || window.MaxX-bb.MinX < s ||
			bb.MaxY-window.MinY < s || window.MaxY-bb.MinY < s {
			continue
		}
		// Whole box clears every edge by >= s — all sources eligible.
		allIn := bb.MinX-window.MinX >= s && window.MaxX-bb.MaxX >= s &&
			bb.MinY-window.MinY >= s && window.MaxY-bb.MaxY >= s
		for i := ch.Lo; i < ch.Hi; i++ {
			p := geom.Point{X: cols.X[i], Y: cols.Y[i]}
			if !allIn && (p.X-window.MinX < s || window.MaxX-p.X < s ||
				p.Y-window.MinY < s || window.MaxY-p.Y < s) {
				continue
			}
			eligible++
			total += idx.RangeCount(p, s) - 1
		}
	}
	if eligible == 0 {
		return 0, 0, false
	}
	lambda := float64(n) / window.Area()
	// K̂ = mean neighbours per eligible source / intensity.
	return float64(total) / (float64(eligible) * lambda), eligible, true
}

func checkThresholds(ts []float64) error {
	if len(ts) == 0 {
		return fmt.Errorf("kfunc: no thresholds")
	}
	prev := math.Inf(-1)
	for i, t := range ts {
		if !(t >= 0) {
			return fmt.Errorf("kfunc: threshold %d is %g, want >= 0", i, t)
		}
		if t <= prev {
			return fmt.Errorf("kfunc: thresholds must be strictly increasing (index %d)", i)
		}
		prev = t
	}
	return nil
}
