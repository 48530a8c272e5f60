package geom

import (
	"fmt"
	"math"
)

// PixelGrid describes the X×Y raster of Definition 1: a bounding region
// divided into NX×NY pixels. Density surfaces (KDV, IDW, Kriging, ...) are
// evaluated at pixel centers. The grid is a pure description; the values
// live in raster.Grid.
//
// Pixel (ix, iy) covers
//
//	[MinX + ix*CellW, MinX + (ix+1)*CellW) × [MinY + iy*CellH, MinY + (iy+1)*CellH)
//
// with ix in [0, NX) increasing eastwards and iy in [0, NY) increasing
// northwards.
type PixelGrid struct {
	Box    BBox
	NX, NY int
}

// NewPixelGrid returns a pixel grid with nx×ny pixels over box. It panics
// if nx or ny is not positive or box is empty: a grid is always constructed
// from validated tool options, so this is a programming error, not runtime
// input.
func NewPixelGrid(box BBox, nx, ny int) PixelGrid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("geom: invalid pixel grid %dx%d", nx, ny))
	}
	if box.IsEmpty() || box.Width() <= 0 || box.Height() <= 0 {
		panic("geom: pixel grid over empty or degenerate bbox")
	}
	return PixelGrid{Box: box, NX: nx, NY: ny}
}

// CellW returns the pixel width.
func (g PixelGrid) CellW() float64 { return g.Box.Width() / float64(g.NX) }

// CellH returns the pixel height.
func (g PixelGrid) CellH() float64 { return g.Box.Height() / float64(g.NY) }

// NumPixels returns NX*NY.
func (g PixelGrid) NumPixels() int { return g.NX * g.NY }

// Center returns the center of pixel (ix, iy).
func (g PixelGrid) Center(ix, iy int) Point {
	return Point{
		X: g.Box.MinX + (float64(ix)+0.5)*g.CellW(),
		Y: g.Box.MinY + (float64(iy)+0.5)*g.CellH(),
	}
}

// CenterX returns the x coordinate of column ix's pixel centers.
func (g PixelGrid) CenterX(ix int) float64 {
	return g.Box.MinX + (float64(ix)+0.5)*g.CellW()
}

// CenterY returns the y coordinate of row iy's pixel centers.
func (g PixelGrid) CenterY(iy int) float64 {
	return g.Box.MinY + (float64(iy)+0.5)*g.CellH()
}

// Index returns the flat index of pixel (ix, iy), row-major with iy as the
// slow axis. raster.Grid stores values in this order.
func (g PixelGrid) Index(ix, iy int) int { return iy*g.NX + ix }

// Locate returns the pixel containing p, clamped to the grid bounds. The
// second result reports whether p was inside the grid's box before
// clamping.
func (g PixelGrid) Locate(p Point) (ix, iy int, inside bool) {
	inside = g.Box.Contains(p)
	ix = ClampIndex((p.X-g.Box.MinX)/g.CellW(), g.NX-1)
	iy = ClampIndex((p.Y-g.Box.MinY)/g.CellH(), g.NY-1)
	return ix, iy, inside
}

// ColRange returns the half-open range [lo, hi) of pixel columns whose
// centers lie within horizontal distance r of x. Used by the cutoff and
// sweep-line KDV algorithms to restrict work to a kernel's support.
func (g PixelGrid) ColRange(x, r float64) (lo, hi int) {
	return g.axisRange(x, r, g.Box.MinX, g.CellW(), g.NX)
}

// RowRange returns the half-open range [lo, hi) of pixel rows whose centers
// lie within vertical distance r of y.
func (g PixelGrid) RowRange(y, r float64) (lo, hi int) {
	return g.axisRange(y, r, g.Box.MinY, g.CellH(), g.NY)
}

func (g PixelGrid) axisRange(v, r, min, cell float64, n int) (lo, hi int) {
	// Center of index i is min + (i+0.5)*cell; we need centers in [v-r, v+r]:
	//   i >= (v-r-min)/cell - 0.5   and   i <= (v+r-min)/cell - 0.5.
	lo = ClampIndex(math.Ceil((v-r-min)/cell-0.5), n)
	hi = ClampIndex(math.Floor((v+r-min)/cell-0.5)+1, n)
	return lo, max(lo, hi)
}

// ClampIndex returns int(f) clamped to [0, hi], with NaN mapped to 0. It
// compares as floats before converting: Go leaves the conversion of a
// float outside the int range to the implementation (amd64 gives
// MinInt64), so clamping after it would turn a huge f into 0.
func ClampIndex(f float64, hi int) int {
	switch {
	case !(f >= 0):
		return 0
	case f >= float64(hi):
		return hi
	}
	return int(f)
}

// GridWindow selects the pixel sub-rectangle [X0, X0+NX) × [Y0, Y0+NY) of
// a parent PixelGrid — the unit of work the shard coordinator hands to one
// worker. Windowed evaluation computes pixel centers from the PARENT grid
// (Center(X0+ix, Y0+iy)), never from a re-derived sub-box: re-deriving
// cell sizes from a sub-box rounds differently and breaks the bit-identity
// between a sharded and a single-node raster. The zero value means "the
// whole grid".
type GridWindow struct {
	X0, Y0 int // origin pixel (inclusive) in the parent grid
	NX, NY int // window size in pixels
}

// IsZero reports whether w is the zero window (meaning the whole grid).
func (w GridWindow) IsZero() bool { return w == GridWindow{} }

// FullWindow returns the window covering all of g.
func (g PixelGrid) FullWindow() GridWindow {
	return GridWindow{X0: 0, Y0: 0, NX: g.NX, NY: g.NY}
}

// CheckWindow validates that w lies inside g: positive size, non-negative
// origin, and X0+NX ≤ g.NX, Y0+NY ≤ g.NY.
func (g PixelGrid) CheckWindow(w GridWindow) error {
	if w.NX <= 0 || w.NY <= 0 {
		return fmt.Errorf("geom: window %dx%d must be positive", w.NX, w.NY)
	}
	if w.X0 < 0 || w.Y0 < 0 || w.X0+w.NX > g.NX || w.Y0+w.NY > g.NY {
		return fmt.Errorf("geom: window [%d,%d)+%dx%d outside %dx%d grid",
			w.X0, w.Y0, w.NX, w.NY, g.NX, g.NY)
	}
	return nil
}

// WindowBox returns the pixel-boundary bounding box of window w — the
// region the window's pixels cover. The corners are derived from the
// parent's cell size, so adjacent windows tile the parent box (up to
// floating-point rounding of the shared edges; callers that need exact
// center coordinates must go through Center on the parent grid).
func (g PixelGrid) WindowBox(w GridWindow) BBox {
	return BBox{
		MinX: g.Box.MinX + float64(w.X0)*g.CellW(),
		MinY: g.Box.MinY + float64(w.Y0)*g.CellH(),
		MaxX: g.Box.MinX + float64(w.X0+w.NX)*g.CellW(),
		MaxY: g.Box.MinY + float64(w.Y0+w.NY)*g.CellH(),
	}
}

// SupportBox returns the region outside which no point can reach a pixel
// of window w (the zero window meaning the whole grid) through a kernel of
// support radius r: the window's pixel box padded by r on every side. The
// axis-aligned pad covers the Euclidean neighbourhood — axis distance never
// exceeds Euclidean distance — and the box runs to the pixel boundaries,
// half a cell beyond the outermost centers, so floating-point rounding of
// a distance cannot put a contributing point outside it. It is the one
// spelling of the halo rule: the shard planner cuts tile subsets with it
// and kde.Evaluate clips with it, both through the boundary-inclusive
// BBox.Contains.
func (g PixelGrid) SupportBox(w GridWindow, r float64) BBox {
	if w.IsZero() {
		w = g.FullWindow()
	}
	return g.WindowBox(w).Pad(r)
}

// SubGrid returns a PixelGrid describing window w of g, for labelling and
// rendering a windowed raster. Its Box is WindowBox(w); note its Center
// coordinates differ from the parent's by floating-point rounding — exact
// evaluation must use the parent grid with the window offsets.
func (g PixelGrid) SubGrid(w GridWindow) PixelGrid {
	return PixelGrid{Box: g.WindowBox(w), NX: w.NX, NY: w.NY}
}
