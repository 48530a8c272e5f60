// Package grid implements a uniform grid (bucket) index over a point
// dataset. For the paper's workloads — range counting at a fixed radius
// (K-function, Equation 2) and kernel support scans at a fixed bandwidth
// (cutoff KDV) — a grid with cell size matched to the query radius gives
// O(1 + k) per query on non-adversarial data and is the workhorse exact
// accelerator in this repository.
package grid

import (
	"math"

	"geostat/internal/geom"
)

// Index is a uniform grid over a point set. Build with New or NewColumns.
type Index struct {
	box     geom.BBox
	nx, ny  int
	cellW   float64
	cellH   float64
	cellPts []int32 // point indices grouped by cell (counting-sort layout)
	cellOff []int32 // cellOff[c]..cellOff[c+1] bounds cell c's slice of cellPts
	// sortedX/sortedY are the point coordinates in cellPts order — cell-local
	// SoA columns so range scans stream contiguous memory. They are the
	// index's only copy of the coordinates; the input is not retained.
	sortedX []float64
	sortedY []float64
}

// New builds a grid index over pts with cells of approximately cellSize on
// a side (clamped so the grid has at least one and at most ~4M cells).
// cellSize should match the dominant query radius; r == cellSize means a
// disc query touches at most 9 cells of candidates.
func New(pts []geom.Point, cellSize float64) *Index {
	return build(len(pts), func(i int) (x, y float64) { return pts[i].X, pts[i].Y }, cellSize)
}

// NewColumns is New over coordinate columns: point i is (xs[i], ys[i]) and
// len(xs) must equal len(ys). It builds the same index New builds over the
// equivalent point slice.
func NewColumns(xs, ys []float64, cellSize float64) *Index {
	return build(len(xs), func(i int) (x, y float64) { return xs[i], ys[i] }, cellSize)
}

// build is the one index constructor; at(i) returns point i's coordinates.
func build(n int, at func(i int) (x, y float64), cellSize float64) *Index {
	g := &Index{box: geom.EmptyBBox()}
	if n == 0 {
		g.nx, g.ny = 1, 1
		g.cellW, g.cellH = 1, 1
		g.cellOff = make([]int32, 2)
		return g
	}
	for i := 0; i < n; i++ {
		x, y := at(i)
		g.box = g.box.ExtendPoint(geom.Point{X: x, Y: y})
	}
	w := math.Max(g.box.Width(), 1e-12)
	h := math.Max(g.box.Height(), 1e-12)
	if !(cellSize > 0) {
		cellSize = math.Max(w, h)
	}
	const maxCells = 1 << 22
	g.nx = max(geom.ClampIndex(math.Ceil(w/cellSize), maxCells), 1)
	g.ny = max(geom.ClampIndex(math.Ceil(h/cellSize), maxCells), 1)
	for g.nx*g.ny > maxCells {
		if g.nx >= g.ny {
			g.nx = (g.nx + 1) / 2
		} else {
			g.ny = (g.ny + 1) / 2
		}
	}
	g.cellW = w / float64(g.nx)
	g.cellH = h / float64(g.ny)

	// Counting sort points into cells.
	ncells := g.nx * g.ny
	counts := make([]int32, ncells+1)
	cellOf := make([]int32, n)
	for i := range cellOf {
		c := int32(g.cellIndex(at(i)))
		cellOf[i] = c
		counts[c+1]++
	}
	for c := 0; c < ncells; c++ {
		counts[c+1] += counts[c]
	}
	g.cellOff = counts
	g.cellPts = make([]int32, n)
	cursor := make([]int32, ncells)
	for i, c := range cellOf {
		g.cellPts[g.cellOff[c]+cursor[c]] = int32(i)
		cursor[c]++
	}
	g.sortedX = make([]float64, n)
	g.sortedY = make([]float64, n)
	for j, pi := range g.cellPts {
		g.sortedX[j], g.sortedY[j] = at(int(pi))
	}
	return g
}

// Len returns the number of indexed points.
func (g *Index) Len() int { return len(g.sortedX) }

// Bounds returns the bounding box of the indexed points.
func (g *Index) Bounds() geom.BBox { return g.box }

func (g *Index) cellIndex(x, y float64) int {
	cx := geom.ClampIndex((x-g.box.MinX)/g.cellW, g.nx-1)
	cy := geom.ClampIndex((y-g.box.MinY)/g.cellH, g.ny-1)
	return cy*g.nx + cx
}

// cellRange returns the inclusive cell coordinate ranges overlapping the
// square of half-side r around q.
func (g *Index) cellRange(q geom.Point, r float64) (cx0, cx1, cy0, cy1 int) {
	cx0 = geom.ClampIndex((q.X-r-g.box.MinX)/g.cellW, g.nx-1)
	cx1 = geom.ClampIndex((q.X+r-g.box.MinX)/g.cellW, g.nx-1)
	cy0 = geom.ClampIndex((q.Y-r-g.box.MinY)/g.cellH, g.ny-1)
	cy1 = geom.ClampIndex((q.Y+r-g.box.MinY)/g.cellH, g.ny-1)
	return
}

// RangeCount returns the number of points within distance r of q
// (boundary inclusive). Cells entirely inside the disc are counted without
// touching their points; boundary cells are scanned.
func (g *Index) RangeCount(q geom.Point, r float64) int {
	if g.Len() == 0 || r < 0 {
		return 0
	}
	r2 := r * r
	cx0, cx1, cy0, cy1 := g.cellRange(q, r)
	count := 0
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			c := rowBase + cx
			lo, hi := int(g.cellOff[c]), int(g.cellOff[c+1])
			if lo == hi {
				continue
			}
			if g.cellInside(cx, cy, q, r2) {
				count += hi - lo
				continue
			}
			for j := lo; j < hi; j++ {
				if g.dist2(j, q) <= r2 {
					count++
				}
			}
		}
	}
	return count
}

// RangeQuery appends the indices of all points within distance r of q to
// dst and returns the extended slice.
func (g *Index) RangeQuery(q geom.Point, r float64, dst []int) []int {
	if g.Len() == 0 || r < 0 {
		return dst
	}
	r2 := r * r
	cx0, cx1, cy0, cy1 := g.cellRange(q, r)
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			c := rowBase + cx
			for j := int(g.cellOff[c]); j < int(g.cellOff[c+1]); j++ {
				if g.dist2(j, q) <= r2 {
					dst = append(dst, int(g.cellPts[j]))
				}
			}
		}
	}
	return dst
}

// ForEachInRange calls fn with the index and squared distance of every
// point within distance r of q. It is the allocation-free core used by the
// KDV cutoff algorithm (fn accumulates kernel values directly).
func (g *Index) ForEachInRange(q geom.Point, r float64, fn func(i int, d2 float64)) {
	if g.Len() == 0 || r < 0 {
		return
	}
	r2 := r * r
	cx0, cx1, cy0, cy1 := g.cellRange(q, r)
	for cy := cy0; cy <= cy1; cy++ {
		rowBase := cy * g.nx
		for cx := cx0; cx <= cx1; cx++ {
			c := rowBase + cx
			for j := int(g.cellOff[c]); j < int(g.cellOff[c+1]); j++ {
				if d2 := g.dist2(j, q); d2 <= r2 {
					fn(int(g.cellPts[j]), d2)
				}
			}
		}
	}
}

// dist2 returns the squared distance from slot j's point to q — the same
// expression as geom.Point.Dist2, so results match the AoS form bit for bit.
func (g *Index) dist2(j int, q geom.Point) float64 {
	dx := g.sortedX[j] - q.X
	dy := g.sortedY[j] - q.Y
	return dx*dx + dy*dy
}

// Columns returns the index's cell-ordered coordinate columns and the
// original point index of each slot: xs[j], ys[j] are the coordinates of
// point ids[j], with points grouped by cell in the same order
// ForEachInRange visits them. Combined with CellSpan and Cell this lets
// hot loops iterate candidates closure-free over contiguous memory. The
// slices are the index's own storage — read-only.
func (g *Index) Columns() (xs, ys []float64, ids []int32) {
	return g.sortedX, g.sortedY, g.cellPts
}

// CellSpan returns the inclusive cell-coordinate ranges overlapping the
// square of half-side r around q (the candidate cells of a radius-r query).
func (g *Index) CellSpan(q geom.Point, r float64) (cx0, cx1, cy0, cy1 int) {
	return g.cellRange(q, r)
}

// Cell returns cell (cx, cy)'s half-open slot range [lo, hi) into the
// Columns slices.
func (g *Index) Cell(cx, cy int) (lo, hi int) {
	c := cy*g.nx + cx
	return int(g.cellOff[c]), int(g.cellOff[c+1])
}

// cellInside reports whether cell (cx, cy) lies entirely within the disc of
// squared radius r2 around q.
func (g *Index) cellInside(cx, cy int, q geom.Point, r2 float64) bool {
	x0 := g.box.MinX + float64(cx)*g.cellW
	y0 := g.box.MinY + float64(cy)*g.cellH
	b := geom.BBox{MinX: x0, MinY: y0, MaxX: x0 + g.cellW, MaxY: y0 + g.cellH}
	return b.MaxDist2(q) <= r2
}
