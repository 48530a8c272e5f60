package kde

import (
	"sync/atomic"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
)

// buildCutoff constructs the exact evaluator for finite-support kernels:
// the points are bucketed into a uniform grid with cell size equal to the
// bandwidth and each pixel scans only the buckets intersecting the kernel
// support. On data without extreme skew this is O(XY·(1+k)) where k is the
// mean point count inside a support disc — the standard practical exact
// accelerator. The scan iterates the index's cell-ordered coordinate
// columns directly with the kernel specialised per type (no per-point
// callback), one cell row of the candidate block per call, visiting
// candidates in the same order the index's ForEachInRange would, so
// results are bit-identical to the callback form. The specialised loops
// filter, then evaluate (chunkEvalFor), so the ~⅔ of candidates outside
// the support disc cost no mispredicted branch.
//
// Infinite-support kernels (Gaussian, exponential) are outside the row's
// kernel class: truncating them silently would violate exactness. Use
// BoundApprox for those (the gap §2.4 of the paper highlights).
func buildCutoff(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
	b := opt.Kernel.Bandwidth()
	idx := gridindex.NewColumns(cols.X, cols.Y, b)
	xs, ys, _ := idx.Columns()
	return &cutoffComputer{idx: idx, opt: opt, xs: xs, ys: ys, eval: chunkEvalFor(opt.Kernel), b: b}, 1, nil
}

type cutoffComputer struct {
	idx    *gridindex.Index
	opt    *Options
	xs, ys []float64 // cell-ordered coordinate columns (idx.Columns)
	eval   chunkEval
	b      float64

	// Summed over all rows, one add per row: kde.evaluate's candidates
	// (slots scanned) and terms (slots inside the support).
	candidates, terms atomic.Int64
}

// computeRow fills one raster row. Each pixel scans the cells
// CellSpan(q, b) in row-major order, one eval call per cell row: cells
// cx0..cx1 of row cy are one run of slots in the index's layout, so the
// call sees the candidates in the same order a call per cell would.
func (c *cutoffComputer) computeRow(iy int, row []float64) {
	g := c.opt.Grid
	qy := g.CenterY(iy)
	var candidates, terms int
	for ix := range row {
		qx := g.CenterX(ix)
		cx0, cx1, cy0, cy1 := c.idx.CellSpan(geom.Point{X: qx, Y: qy}, c.b)
		sum := 0.0
		for cy := cy0; cy <= cy1; cy++ {
			lo, _ := c.idx.Cell(cx0, cy)
			_, hi := c.idx.Cell(cx1, cy)
			if lo != hi {
				var n int
				sum, n = c.eval(sum, qx, qy, c.xs[lo:hi], c.ys[lo:hi])
				candidates += hi - lo
				terms += n
			}
		}
		row[ix] = sum
	}
	c.candidates.Add(int64(candidates))
	c.terms.Add(int64(terms))
}
