// Package balltree implements a ball-tree (Moore's anchors hierarchy [71]
// in the paper): a binary tree whose nodes are bounding balls
// (center, radius), answering disc range counts and queries. It is one of
// the index structures the K-function's range-query family (§2.3) is
// compared across (kfunc.BallTreeIndexed); bound-based KDE runs on the
// kd-tree.
package balltree

import (
	"math"

	"geostat/internal/geom"
)

// Tree is an immutable ball-tree. Build with New.
type Tree struct {
	pts   []geom.Point
	idx   []int
	nodes []node
}

type node struct {
	center      geom.Point
	radius      float64
	lo, hi      int
	left, right int32
}

const leafSize = 16

// New builds a ball-tree over pts in O(n log n). The input slice is copied.
func New(pts []geom.Point) *Tree {
	t := &Tree{
		pts: append([]geom.Point(nil), pts...),
		idx: make([]int, len(pts)),
	}
	for i := range t.idx {
		t.idx[i] = i
	}
	if len(pts) == 0 {
		return t
	}
	t.nodes = make([]node, 0, 2*(len(pts)/leafSize+1))
	t.build(0, len(pts))
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

func (t *Tree) build(lo, hi int) int32 {
	ni := int32(len(t.nodes))
	c, r := boundingBall(t.pts[lo:hi])
	t.nodes = append(t.nodes, node{center: c, radius: r, lo: lo, hi: hi, left: -1, right: -1})
	if hi-lo <= leafSize {
		return ni
	}
	// Split by projecting onto the diameter direction: pick the point A
	// farthest from the centroid, then B farthest from A, and partition by
	// which of A/B is closer (the classic ball-tree split).
	a := t.farthest(lo, hi, c)
	b := t.farthest(lo, hi, t.pts[a])
	pa, pb := t.pts[a], t.pts[b]
	mid := lo
	for i := lo; i < hi; i++ {
		if t.pts[i].Dist2(pa) <= t.pts[i].Dist2(pb) {
			t.swap(i, mid)
			mid++
		}
	}
	// Guard degenerate splits (all points identical): force a balanced cut.
	if mid == lo || mid == hi {
		mid = lo + (hi-lo)/2
	}
	left := t.build(lo, mid)
	right := t.build(mid, hi)
	t.nodes[ni].left = left
	t.nodes[ni].right = right
	return ni
}

func (t *Tree) swap(i, j int) {
	t.pts[i], t.pts[j] = t.pts[j], t.pts[i]
	t.idx[i], t.idx[j] = t.idx[j], t.idx[i]
}

func (t *Tree) farthest(lo, hi int, from geom.Point) int {
	best, bestD := lo, -1.0
	for i := lo; i < hi; i++ {
		if d := t.pts[i].Dist2(from); d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

// boundingBall returns a ball containing all points: centroid center with
// radius to the farthest point (within 2x of optimal, adequate for pruning).
func boundingBall(pts []geom.Point) (geom.Point, float64) {
	var c geom.Point
	for _, p := range pts {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(len(pts)))
	r2 := 0.0
	for _, p := range pts {
		if d := p.Dist2(c); d > r2 {
			r2 = d
		}
	}
	return c, math.Sqrt(r2)
}

// RangeCount returns the number of points within distance r of q.
func (t *Tree) RangeCount(q geom.Point, r float64) int {
	if len(t.nodes) == 0 || r < 0 {
		return 0
	}
	return t.rangeCount(0, q, r)
}

func (t *Tree) rangeCount(ni int32, q geom.Point, r float64) int {
	n := &t.nodes[ni]
	d := q.Dist(n.center)
	if d > n.radius+r {
		return 0 // ball entirely outside the disc
	}
	if d+n.radius <= r {
		return n.hi - n.lo // ball entirely inside the disc
	}
	if n.left < 0 {
		c := 0
		r2 := r * r
		for _, p := range t.pts[n.lo:n.hi] {
			if p.Dist2(q) <= r2 {
				c++
			}
		}
		return c
	}
	return t.rangeCount(n.left, q, r) + t.rangeCount(n.right, q, r)
}

// RangeQuery appends the original indices of all points within distance r
// of q to dst and returns the extended slice.
func (t *Tree) RangeQuery(q geom.Point, r float64, dst []int) []int {
	if len(t.nodes) == 0 || r < 0 {
		return dst
	}
	return t.rangeQuery(0, q, r, dst)
}

func (t *Tree) rangeQuery(ni int32, q geom.Point, r float64, dst []int) []int {
	n := &t.nodes[ni]
	d := q.Dist(n.center)
	if d > n.radius+r {
		return dst
	}
	if d+n.radius <= r {
		return append(dst, t.idx[n.lo:n.hi]...)
	}
	if n.left < 0 {
		r2 := r * r
		for i := n.lo; i < n.hi; i++ {
			if t.pts[i].Dist2(q) <= r2 {
				dst = append(dst, t.idx[i])
			}
		}
		return dst
	}
	dst = t.rangeQuery(n.left, q, r, dst)
	return t.rangeQuery(n.right, q, r, dst)
}
