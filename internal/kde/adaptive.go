package kde

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/index/kdtree"
	"geostat/internal/kernel"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Adaptive computes a sample-point adaptive KDV ([107] in the paper's
// hardware family is a GPU *adaptive* KDE): each point carries its own
// bandwidth, so sparse regions are smoothed wide and dense hotspots keep
// sharp detail:
//
//	F(q) = Σ_i K_{b_i}(q, p_i)
//
// The evaluation scatters each point's exact kernel footprint
// (geom.Footprint: the pixels its kernel test passes) onto the raster,
// costing O(Σ_i footprint_i) — independent of the raster area covered by
// no kernel. Infinite-support kernels are rejected (a per-point Gaussian
// would touch every pixel).
func Adaptive(cols dataset.Columns, bandwidths []float64, typ kernel.Type, grid geom.PixelGrid, workers int) (*raster.Grid, error) {
	if len(bandwidths) != cols.N() {
		return nil, fmt.Errorf("kde: %d points but %d bandwidths", cols.N(), len(bandwidths))
	}
	if grid.NX <= 0 || grid.NY <= 0 {
		return nil, fmt.Errorf("kde: grid not initialised")
	}
	for i, b := range bandwidths {
		k, err := kernel.New(typ, b)
		if err != nil {
			return nil, fmt.Errorf("kde: bandwidth %d: %w", i, err)
		}
		if !k.FiniteSupport() {
			return nil, fmt.Errorf("kde: Adaptive requires a finite-support kernel, got %v", typ)
		}
	}
	out := raster.NewGrid(grid)
	if parallel.Workers(workers) <= 1 {
		for i, b := range bandwidths {
			fp := grid.Footprint(b)
			scatter(out.Values, grid, &fp, kernel.MustNew(typ, b), geom.Point{X: cols.X[i], Y: cols.Y[i]}, 1, 0, grid.NY)
		}
		return out, nil
	}
	// Footprints overlap, so workers cannot scatter points concurrently;
	// and summing per-worker rasters would make each pixel's float addition
	// order depend on which worker claimed which points. So the parallel
	// path splits the raster, not the points: it is cut into bands of h
	// rows, byBand lists for every band, in point order, the points whose
	// footprint reaches it (counting sort), and a worker scatters one band
	// at a time, clamped to the band's rows. Every pixel adds its points in
	// index order — the serial loop's sequence — so the raster is
	// bit-identical for every worker count. ~8 bands per worker let dynamic
	// claiming rebalance hotspot bands against empty ones.
	h := max(1, grid.NY/(parallel.Workers(workers)*8))
	bands := (grid.NY + h - 1) / h
	rows := make([][2]int, len(bandwidths)) // each point's footprint rows [lo, hi)
	start := make([]int, bands+1)
	for i, b := range bandwidths {
		fp := grid.Footprint(b)
		lo, hi := fp.Rows(cols.Y[i])
		rows[i] = [2]int{lo, hi}
		for band := lo / h; band*h < hi; band++ {
			start[band+1]++
		}
	}
	for band := 0; band < bands; band++ {
		start[band+1] += start[band]
	}
	byBand := make([]int32, start[bands])
	next := append([]int(nil), start[:bands]...)
	for i, r := range rows {
		for band := r[0] / h; band*h < r[1]; band++ {
			byBand[next[band]] = int32(i)
			next[band]++
		}
	}
	parallel.For(bands, workers, func(band int) {
		for _, i := range byBand[start[band]:start[band+1]] {
			fp := grid.Footprint(bandwidths[i])
			scatter(out.Values, grid, &fp, kernel.MustNew(typ, bandwidths[i]), geom.Point{X: cols.X[i], Y: cols.Y[i]}, 1, band*h, (band+1)*h)
		}
	})
	return out, nil
}

// scatter adds sign·K(d) of the point p to every pixel of its footprint fp
// within rows [rowLo, rowHi), skipping the terms K maps to zero. sign is
// ±1, so sign·K is exact: a pixel that receives its terms in point order
// holds the bits of the pixel-major sum, and a retraction (sign −1)
// subtracts exactly what the insertion added.
func scatter(values []float64, grid geom.PixelGrid, fp *geom.Footprint, k kernel.Kernel, p geom.Point, sign float64, rowLo, rowHi int) {
	lo, hi := fp.Rows(p.Y)
	for iy := max(lo, rowLo); iy < min(hi, rowHi); iy++ {
		dy := grid.CenterY(iy) - p.Y
		colLo, colHi := fp.Cols(p.X, dy)
		dy2 := dy * dy
		base := iy * grid.NX
		for ix := colLo; ix < colHi; ix++ {
			dx := grid.CenterX(ix) - p.X
			if v := k.Eval2(dx*dx + dy2); v != 0 {
				values[base+ix] += sign * v
			}
		}
	}
}

// AdaptiveBandwidths derives a per-point bandwidth from local density: the
// distance to the k-th nearest neighbour, scaled, and floored so isolated
// duplicates never get a zero bandwidth. This is the standard
// nearest-neighbour pilot for adaptive KDE.
func AdaptiveBandwidths(cols dataset.Columns, k int, scale, minBandwidth float64) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("kde: k must be >= 1, got %d", k)
	}
	if !(scale > 0) || !(minBandwidth > 0) {
		return nil, fmt.Errorf("kde: scale and minBandwidth must be positive")
	}
	tree, _ := cols.Tree()
	out := make([]float64, cols.N())
	var scratch kdtree.Scratch
	for i := range out {
		_, d2 := tree.KNearest(geom.Point{X: cols.X[i], Y: cols.Y[i]}, k+1, &scratch) // includes self at d=0
		b := minBandwidth
		if len(d2) > 0 {
			if d := math.Sqrt(d2[len(d2)-1]) * scale; d > b {
				b = d
			}
		}
		out[i] = b
	}
	return out, nil
}
