// Package geom provides the planar geometric primitives shared by every
// analytic tool in this repository: points, bounding boxes, distance
// helpers, and the pixel grids over which density surfaces are evaluated
// (the X×Y raster of Definition 1 in the paper).
//
// All coordinates are planar (projected) coordinates. The paper's tools are
// defined on Euclidean distance; datasets in geographic coordinates are
// assumed to have been projected before entering the library.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s about the origin.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(p.Dist2(q)) }

// Dist2 returns the squared Euclidean distance between p and q. Squared
// distances avoid a sqrt in the hot loops of every tool; kernels in
// internal/kernel are evaluated directly on squared distance.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// BBox is an axis-aligned bounding box. A BBox with Min > Max on either
// axis is empty; EmptyBBox returns the canonical empty box that behaves as
// the identity under Union.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyBBox returns a box that contains nothing and unions as identity.
func EmptyBBox() BBox {
	return BBox{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// NewBBox returns the bounding box of the given points.
func NewBBox(pts []Point) BBox {
	b := EmptyBBox()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// SplitXY copies pts into coordinate columns: the one []Point → (xs, ys)
// copy the slice-taking entry points make before a columnar pipeline.
func SplitXY(pts []Point) (xs, ys []float64) {
	xs, ys = make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return xs, ys
}

// IsEmpty reports whether b contains no points.
func (b BBox) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Width returns the horizontal extent of b (0 for empty boxes).
func (b BBox) Width() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height returns the vertical extent of b (0 for empty boxes).
func (b BBox) Height() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area returns the area of b.
func (b BBox) Area() float64 { return b.Width() * b.Height() }

// Center returns the center of b.
func (b BBox) Center() Point { return Point{(b.MinX + b.MaxX) / 2, (b.MinY + b.MaxY) / 2} }

// Contains reports whether p lies inside b (boundary inclusive).
func (b BBox) Contains(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// ContainsBox reports whether o lies entirely inside b.
func (b BBox) ContainsBox(o BBox) bool {
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= b.MinX && o.MaxX <= b.MaxX && o.MinY >= b.MinY && o.MaxY <= b.MaxY
}

// Intersects reports whether b and o share any point.
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// ExtendPoint returns b grown to include p.
func (b BBox) ExtendPoint(p Point) BBox {
	return BBox{
		MinX: min(b.MinX, p.X), MinY: min(b.MinY, p.Y),
		MaxX: max(b.MaxX, p.X), MaxY: max(b.MaxY, p.Y),
	}
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		MinX: min(b.MinX, o.MinX), MinY: min(b.MinY, o.MinY),
		MaxX: max(b.MaxX, o.MaxX), MaxY: max(b.MaxY, o.MaxY),
	}
}

// Pad returns b grown by m on every side.
func (b BBox) Pad(m float64) BBox {
	if b.IsEmpty() {
		return b
	}
	return BBox{MinX: b.MinX - m, MinY: b.MinY - m, MaxX: b.MaxX + m, MaxY: b.MaxY + m}
}

// MinDist2 returns the squared distance from p to the nearest point of b,
// 0 if p is inside b. This is the pruning bound used by the spatial
// indexes' range counting and by bound-based KDE traversal.
func (b BBox) MinDist2(p Point) float64 {
	dx := axisDist(p.X, b.MinX, b.MaxX)
	dy := axisDist(p.Y, b.MinY, b.MaxY)
	return dx*dx + dy*dy
}

// MaxDist2 returns the squared distance from p to the farthest point of b.
// Together with MinDist2 it brackets every point-in-box distance, which is
// exactly what the function-approximation KDE methods (QUAD/KARL family in
// the paper) need to derive lower/upper kernel bounds per index node.
func (b BBox) MaxDist2(p Point) float64 {
	dx := max(math.Abs(p.X-b.MinX), math.Abs(p.X-b.MaxX))
	dy := max(math.Abs(p.Y-b.MinY), math.Abs(p.Y-b.MaxY))
	return dx*dx + dy*dy
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
