package raster

import (
	"geostat/internal/geom"
)

// Segment is one straight piece of an iso-contour line.
type Segment struct {
	A, B geom.Point
}

// Contour extracts the iso-line of the surface at the given level with
// marching squares over the pixel-center lattice (linear interpolation
// along cell edges). The returned segments jointly trace every crossing of
// the level; hotspot outlines (e.g. at 50% of the peak) are the usual use.
func (g *Grid) Contour(level float64) []Segment {
	var segs []Segment
	nx, ny := g.Spec.NX, g.Spec.NY
	for iy := 0; iy+1 < ny; iy++ {
		for ix := 0; ix+1 < nx; ix++ {
			// Cell corners: pixel centers (ix,iy) .. (ix+1,iy+1).
			v00 := g.At(ix, iy)
			v10 := g.At(ix+1, iy)
			v01 := g.At(ix, iy+1)
			v11 := g.At(ix+1, iy+1)
			idx := 0
			if v00 >= level {
				idx |= 1
			}
			if v10 >= level {
				idx |= 2
			}
			if v11 >= level {
				idx |= 4
			}
			if v01 >= level {
				idx |= 8
			}
			if idx == 0 || idx == 15 {
				continue
			}
			p00 := g.Spec.Center(ix, iy)
			p10 := g.Spec.Center(ix+1, iy)
			p01 := g.Spec.Center(ix, iy+1)
			p11 := g.Spec.Center(ix+1, iy+1)
			// Edge crossing points (only those needed per case).
			bottom := func() geom.Point { return lerpPoint(p00, p10, frac(v00, v10, level)) }
			top := func() geom.Point { return lerpPoint(p01, p11, frac(v01, v11, level)) }
			left := func() geom.Point { return lerpPoint(p00, p01, frac(v00, v01, level)) }
			right := func() geom.Point { return lerpPoint(p10, p11, frac(v10, v11, level)) }
			add := func(a, b geom.Point) { segs = append(segs, Segment{A: a, B: b}) }
			switch idx {
			case 1, 14:
				add(left(), bottom())
			case 2, 13:
				add(bottom(), right())
			case 3, 12:
				add(left(), right())
			case 4, 11:
				add(right(), top())
			case 6, 9:
				add(bottom(), top())
			case 7, 8:
				add(left(), top())
			case 5: // saddle: resolve by the cell-center average
				if (v00+v10+v01+v11)/4 >= level {
					add(left(), top())
					add(bottom(), right())
				} else {
					add(left(), bottom())
					add(right(), top())
				}
			case 10: // the opposite saddle
				if (v00+v10+v01+v11)/4 >= level {
					add(left(), bottom())
					add(right(), top())
				} else {
					add(left(), top())
					add(bottom(), right())
				}
			}
		}
	}
	return segs
}

// AreaAbove returns the total area of pixels whose value is >= level —
// the "hotspot area" statistic paired with Contour.
func (g *Grid) AreaAbove(level float64) float64 {
	cell := g.Spec.CellW() * g.Spec.CellH()
	area := 0.0
	for _, v := range g.Values {
		if v >= level {
			area += cell
		}
	}
	return area
}

// frac returns the interpolation parameter where the level crosses between
// values a and b (clamped to [0, 1] against degenerate equal values).
func frac(a, b, level float64) float64 {
	den := b - a
	if den == 0 {
		return 0.5
	}
	t := (level - a) / den
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func lerpPoint(a, b geom.Point, t float64) geom.Point {
	return geom.Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
}

// CountGrid rasterises the points (xs[i], ys[i]) into per-pixel counts —
// the aggregation step feeding grid-based tools (Gi* hot-spot maps,
// quadrat-style summaries).
func CountGrid(xs, ys []float64, spec geom.PixelGrid) *Grid {
	g := NewGrid(spec)
	for i, x := range xs {
		ix, iy, inside := spec.Locate(geom.Point{X: x, Y: ys[i]})
		if inside {
			g.Values[spec.Index(ix, iy)]++
		}
	}
	return g
}
