// Package idw implements inverse distance weighting interpolation (Table 1
// of the paper, Bartier & Keller [20]): each pixel q is interpolated as
//
//	Z(q) = Σ_i w_i·z_i / Σ_i w_i,   w_i = 1/dist(q, p_i)^power
//
// A pixel coincident with a sample takes that sample's value exactly.
//
// Variants (the §2.4 acceleration opportunity, realised):
//
//   - Naive: all n samples per pixel — the O(XYn) cost [20] quotes.
//   - KNN: only the k nearest samples (kd-tree), the common GIS default.
//   - Radius: only samples within a cutoff radius (grid index); pixels with
//     no sample in range fall back to the nearest sample.
package idw

import (
	"context"
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/index/kdtree"
	"geostat/internal/obs"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Options configures IDW interpolation.
type Options struct {
	// Grid is the output raster.
	Grid geom.PixelGrid
	// Power is the distance exponent (2 is the near-universal default; set
	// explicitly, 0 is rejected).
	Power float64
	// Workers parallelises rows; 0/1 serial, <0 GOMAXPROCS.
	Workers int
	// Ctx optionally bounds the computation: workers check it between row
	// chunks and the entry point returns ctx.Err() (with a nil grid) when
	// it fires. Nil means no cancellation.
	Ctx context.Context
}

// context returns the effective context of the computation.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) validate(d *dataset.Dataset) error {
	if o.Grid.NX <= 0 || o.Grid.NY <= 0 {
		return fmt.Errorf("idw: grid not initialised")
	}
	if !(o.Power > 0) {
		return fmt.Errorf("idw: Power must be positive, got %g", o.Power)
	}
	if !d.HasValues() {
		return fmt.Errorf("idw: dataset has no values to interpolate")
	}
	if d.N() == 0 {
		return fmt.Errorf("idw: empty dataset")
	}
	return nil
}

// epsCoincident is the squared distance below which a pixel is treated as
// coincident with a sample and takes its value exactly (avoids 1/0).
const epsCoincident = 1e-18

// Naive interpolates every pixel from every sample: O(XYn). The inner loop
// streams the dataset's coordinate columns with the power specialised
// outside the loop, in sample order — results are bit-identical to the
// array-of-structs loop it replaces.
func Naive(d *dataset.Dataset, opt Options) (*raster.Grid, error) {
	if err := opt.validate(d); err != nil {
		return nil, err
	}
	cols := d.Columns()
	vals := d.Values()
	return runRows(&opt, func(iy int, row []float64) {
		qy := opt.Grid.CenterY(iy)
		for ix := range row {
			row[ix] = naivePixel(cols.X, cols.Y, vals, opt.Grid.CenterX(ix), qy, opt.Power)
		}
	})
}

// naivePixel interpolates one pixel from every sample. A sample coincident
// with the pixel short-circuits with its value (first coincident sample
// wins, matching scan order).
func naivePixel(xs, ys, vals []float64, qx, qy, power float64) float64 {
	num, den := 0.0, 0.0
	switch power {
	case 2:
		for i, x := range xs {
			dx := x - qx
			dy := ys[i] - qy
			d2 := dx*dx + dy*dy
			if d2 < epsCoincident {
				return vals[i]
			}
			w := 1 / d2
			num += w * vals[i]
			den += w
		}
	case 4:
		for i, x := range xs {
			dx := x - qx
			dy := ys[i] - qy
			d2 := dx*dx + dy*dy
			if d2 < epsCoincident {
				return vals[i]
			}
			w := 1 / (d2 * d2)
			num += w * vals[i]
			den += w
		}
	default:
		for i, x := range xs {
			dx := x - qx
			dy := ys[i] - qy
			d2 := dx*dx + dy*dy
			if d2 < epsCoincident {
				return vals[i]
			}
			w := math.Pow(d2, -power/2)
			num += w * vals[i]
			den += w
		}
	}
	return num / den
}

// KNN interpolates each pixel from its k nearest samples.
func KNN(d *dataset.Dataset, opt Options, k int) (*raster.Grid, error) {
	if err := opt.validate(d); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("idw: k must be >= 1, got %d", k)
	}
	tree, built := d.Tree()
	obs.ActiveSpan(opt.Ctx).SetAttrHit("tree", !built)
	vals := d.Values()
	return runRows(&opt, func(iy int, row []float64) {
		qy := opt.Grid.CenterY(iy)
		var scratch kdtree.Scratch // per row: rows are the unit of parallel work
		for ix := range row {
			q := geom.Point{X: opt.Grid.CenterX(ix), Y: qy}
			idx, d2 := tree.KNearest(q, k, &scratch)
			num, den := 0.0, 0.0
			exact := math.NaN()
			for j, i := range idx {
				if d2[j] < epsCoincident {
					exact = vals[i]
					break
				}
				w := weight(d2[j], opt.Power)
				num += w * vals[i]
				den += w
			}
			if !math.IsNaN(exact) {
				row[ix] = exact
			} else {
				row[ix] = num / den
			}
		}
	})
}

// Radius interpolates each pixel from the samples within radius; a pixel
// with no in-range sample falls back to its nearest sample's value.
func Radius(d *dataset.Dataset, opt Options, radius float64) (*raster.Grid, error) {
	if err := opt.validate(d); err != nil {
		return nil, err
	}
	if !(radius > 0) {
		return nil, fmt.Errorf("idw: radius must be positive, got %g", radius)
	}
	cols := d.Columns()
	idx := gridindex.NewColumns(cols.X, cols.Y, radius)
	xs, ys, ids := idx.Columns()
	vals := d.Values()
	r2 := radius * radius
	return runRows(&opt, func(iy int, row []float64) {
		qy := opt.Grid.CenterY(iy)
		for ix := range row {
			qx := opt.Grid.CenterX(ix)
			q := geom.Point{X: qx, Y: qy}
			cx0, cx1, cy0, cy1 := idx.CellSpan(q, radius)
			num, den := 0.0, 0.0
			exact := math.NaN()
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					lo, hi := idx.Cell(cx, cy)
					for j := lo; j < hi; j++ {
						dx := xs[j] - qx
						dy := ys[j] - qy
						d2 := dx*dx + dy*dy
						if d2 > r2 {
							continue
						}
						if d2 < epsCoincident {
							exact = vals[ids[j]]
							continue
						}
						w := weight(d2, opt.Power)
						num += w * vals[ids[j]]
						den += w
					}
				}
			}
			switch {
			case !math.IsNaN(exact):
				row[ix] = exact
			case den > 0:
				row[ix] = num / den
			default:
				tree, _ := d.Tree() // fallback nearest; built only if some pixel needs it
				i, _ := tree.Nearest(q)
				row[ix] = vals[i]
			}
		}
	})
}

// weight computes 1/dist^power from a squared distance, avoiding the sqrt
// for the common even powers.
func weight(d2, power float64) float64 {
	switch power {
	case 2:
		return 1 / d2
	case 4:
		return 1 / (d2 * d2)
	default:
		return math.Pow(d2, -power/2)
	}
}

func runRows(opt *Options, rowFn func(iy int, row []float64)) (*raster.Grid, error) {
	out := raster.NewGrid(opt.Grid)
	nx, ny := opt.Grid.NX, opt.Grid.NY
	if err := parallel.ForCtx(opt.context(), ny, opt.Workers, func(iy int) {
		rowFn(iy, out.Values[iy*nx:(iy+1)*nx])
	}); err != nil {
		return nil, err
	}
	return out, nil
}
