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

// Footprint is the exact pixel footprint on a grid of a kernel of support
// radius b: the pixels whose centres pass every finite kernel's support
// test, fl(fl(dx²) + fl(dy²)) ≤ fl(b²) with dx = x − CenterX(ix) and
// dy = y − CenterY(iy). It is the one place that decides which pixels a
// point reaches, so no point-major writer drops a term the kernel passes.
type Footprint struct {
	b2   float64
	x, y axis
}

// axis is n cells of width cell = 1/inv from min, with run's rounding
// tolerance in cells.
type axis struct {
	min, cell, inv, tol float64
	n                   int
}

// Footprint returns the footprint on g of a kernel of support radius b.
// Its runs hold for finite points.
func (g PixelGrid) Footprint(b float64) (f Footprint) {
	f.b2 = b * b
	f.x.init(g.Box.MinX, g.Box.MaxX, g.CellW(), g.NX, b)
	f.y.init(g.Box.MinY, g.Box.MaxY, g.CellH(), g.NY, b)
	return f
}

// Cols returns the half-open run [lo, hi) of exactly the columns a point
// at x reaches on a row dy away: empty when fl(dy²) > fl(b²).
func (f *Footprint) Cols(x, dy float64) (lo, hi int) {
	d2 := dy * dy
	if !(d2 <= f.b2) {
		return 0, 0
	}
	return f.x.run(x, d2, f.b2)
}

// Rows returns the half-open run [lo, hi) of exactly the rows a point at y
// reaches: those with fl((y − CenterY(iy))²) ≤ fl(b²).
func (f *Footprint) Rows(y float64) (lo, hi int) { return f.y.run(y, 0, f.b2) }

// RowHalo returns how many rows either side of a point's own row (Locate's
// iy) hold every row its footprint reaches: those rows lie within
// b/cellH + tol + ½ of it, the rounding of Locate included.
func (f *Footprint) RowHalo() int {
	return ClampIndex(math.Ceil(math.Sqrt(f.b2)*f.y.inv+f.y.tol)+1, f.y.n-1)
}

// init sizes run's tolerance: in coordinate units, the interval's ends
// and the exact test's flips differ by under 16·ulp(m), m = max(|lo|, |hi|)
// + b (a point beyond m reaches no cell), from rounding the centre and the
// offsets, plus |t − r| ≤ √δ, δ = 2⁻⁴⁹·b², from rounding the square, the
// sum, b² − d² and the root — largest as d → b. Each is doubled; DESIGN.md
// ("One footprint") has the derivation.
func (a *axis) init(lo, hi, cell float64, n int, b float64) {
	m := max(math.Abs(lo), math.Abs(hi)) + b
	ulp := math.Float64frombits(math.Float64bits(m)&(0x7ff<<52)) * 0x1p-52
	sd := 0x1p-23*b + 0x1p-529 // ≥ 2√δ; the floor covers a subnormal b²
	a.min, a.cell, a.inv, a.n = lo, cell, 1/cell, n
	a.tol = (32*ulp+sd)*a.inv + 0x1p-50*float64(n+2)
}

// run returns the cells i with fl(fl((v − centre(i))²) + d2) ≤ b2, given
// d2 ≤ b2: one run, since centres rise with i, so the offset's square
// falls and then rises. Its ends lie within tol of the float interval
// fl(v − min)·inv − ½ ∓ √(b2 − d2)·inv, so only a cell within tol of an
// interval end takes the exact test — on an ordinary grid, almost never.
func (a *axis) run(v, d2, b2 float64) (lo, hi int) {
	if !(b2-d2 <= math.MaxFloat64) { // b2 = +Inf: every cell passes
		return 0, a.n
	}
	// Cells below first and from end on fail and cells in [in, out) pass;
	// the rest take the test (on a grid too fine to tell, tol spans it
	// all). The run starts below in, or is empty, so lo stops there.
	c, w := (v-a.min)*a.inv-0.5, math.Sqrt(b2-d2)*a.inv
	ulo, uhi := c-w, c+w
	first, in := ClampIndex(math.Ceil(ulo-a.tol), a.n), ClampIndex(math.Floor(ulo+a.tol)+1, a.n)
	out, end := ClampIndex(math.Ceil(uhi-a.tol), a.n), ClampIndex(math.Floor(uhi+a.tol)+1, a.n)
	pass := func(i int) bool {
		dv := v - (a.min + (float64(i)+0.5)*a.cell)
		return dv*dv+d2 <= b2
	}
	for lo = first; lo < in && !pass(lo); lo++ {
	}
	for hi = end; hi > max(out, lo) && !pass(hi-1); hi-- {
	}
	return lo, hi
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
