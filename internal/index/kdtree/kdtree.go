// Package kdtree implements a 2-d tree over point datasets (Bentley [21]
// in the paper), the index structure behind two of the paper's acceleration
// families: range-query-based K-function computation (§2.3) and
// function-approximation KDE, which walks the tree refining per-node
// lower/upper kernel bounds (§2.2).
//
// The tree is built once and keeps its own reordered coordinate columns
// (the layout a Dataset already has); nodes store their bounding box,
// subtree size and moments (centroid, scatter) so that (a) disc range
// counting can accept or reject whole subtrees and (b) bound-based KDE can
// score a whole subtree in O(1) from MinDist2/MaxDist2 and the exact
// Σ|pᵢ−q|² the moments give (KARL's bounds, internal/kde).
package kdtree

import (
	"math"

	"geostat/internal/geom"
)

// Tree is an immutable 2-d tree. Build with New or NewColumns.
type Tree struct {
	xs, ys  []float64 // coordinates reordered during construction
	idx     []int     // idx[i] = original index of slot i
	nodes   []node    // implicit tree, nodes[0] is the root
	moments []moment  // moments[i] summarises nodes[i]; kept apart so the node KNearest walks stays small
}

// node is one kd-tree node covering slots [lo, hi).
type node struct {
	box         geom.BBox
	lo, hi      int // point range covered by this subtree
	left, right int32
	// left/right are node indices; -1 for leaves.
}

// moment is a node's second-order summary: the centroid (cx, cy) of its
// points and their scatter s = Σ|pᵢ−c|² about it. Centring on the node's
// own centroid keeps s exact to rounding at any coordinate offset, where
// the raw Σ|pᵢ|² − n·|c|² would cancel.
type moment struct {
	cx, cy, s float64
}

const leafSize = 16 // points per leaf; small enough for tight boxes, large enough to amortise recursion

// New builds a kd-tree over pts. The input slice is not modified; the tree
// keeps its own reordered copy. Building is O(n log n).
func New(pts []geom.Point) *Tree {
	xs, ys := geom.SplitXY(pts)
	return newTree(xs, ys)
}

// NewColumns is New over coordinate columns: point i is (xs[i], ys[i]) and
// len(xs) must equal len(ys). The columns are copied, not retained; the
// tree is the one New builds over the equivalent point slice.
func NewColumns(xs, ys []float64) *Tree {
	return newTree(append([]float64(nil), xs...), append([]float64(nil), ys...))
}

// newTree is the one constructor; it takes ownership of xs and ys.
func newTree(xs, ys []float64) *Tree {
	t := &Tree{xs: xs, ys: ys, idx: make([]int, len(xs))}
	for i := range t.idx {
		t.idx[i] = i
	}
	if len(xs) == 0 {
		return t
	}
	nn := nodeCount(len(xs))
	t.nodes = make([]node, 0, nn)
	t.moments = make([]moment, 0, nn)
	t.build(0, len(xs))
	return t
}

// nodeCount returns the number of nodes build makes over n > 0 points.
func nodeCount(n int) int {
	if n <= leafSize {
		return 1
	}
	return 1 + nodeCount(n/2) + nodeCount(n-n/2)
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.xs) }

// dist2 returns the squared distance from slot i's point to q — the same
// expression as geom.Point.Dist2, so results match the AoS form bit for bit.
func (t *Tree) dist2(i int, q geom.Point) float64 {
	dx := t.xs[i] - q.X
	dy := t.ys[i] - q.Y
	return dx*dx + dy*dy
}

// Bounds returns the bounding box of the indexed points.
func (t *Tree) Bounds() geom.BBox {
	if len(t.nodes) == 0 {
		return geom.EmptyBBox()
	}
	return t.nodes[0].box
}

// build constructs the subtree over slots [lo, hi) splitting on the wider
// axis, and returns the node index. Moments are filled bottom-up: a leaf
// sums its points, an inner node merges its children's.
func (t *Tree) build(lo, hi int) int32 {
	ni := int32(len(t.nodes))
	box := geom.EmptyBBox()
	for i := lo; i < hi; i++ {
		box = box.ExtendPoint(geom.Point{X: t.xs[i], Y: t.ys[i]})
	}
	t.nodes = append(t.nodes, node{box: box, lo: lo, hi: hi, left: -1, right: -1})
	t.moments = append(t.moments, moment{})
	if hi-lo <= leafSize {
		t.moments[ni] = leafMoment(t.xs[lo:hi], t.ys[lo:hi])
		return ni
	}
	// Split on the wider axis at the median for balanced depth.
	mid := (hi - lo) / 2
	s := axisSlots{key: t.xs[lo:hi], other: t.ys[lo:hi], idx: t.idx[lo:hi]}
	if box.Width() < box.Height() {
		s.key, s.other = s.other, s.key
	}
	// nth_element via full sort would be O(n log² n) overall; a quickselect
	// keeps construction O(n log n).
	s.quickselect(mid)
	left := t.build(lo, lo+mid)
	right := t.build(lo+mid, hi)
	t.nodes[ni].left = left
	t.nodes[ni].right = right
	t.moments[ni] = mergeMoments(t.moments[left], mid, t.moments[right], hi-lo-mid)
	return ni
}

// leafMoment computes the moments of a leaf's points, shifting by the first
// point so the sums stay small at large coordinate offsets.
func leafMoment(xs, ys []float64) moment {
	x0, y0 := xs[0], ys[0]
	var sx, sy float64
	for i := range xs {
		sx += xs[i] - x0
		sy += ys[i] - y0
	}
	n := float64(len(xs))
	m := moment{cx: x0 + sx/n, cy: y0 + sy/n}
	for i := range xs {
		dx, dy := xs[i]-m.cx, ys[i]-m.cy
		m.s += dx*dx + dy*dy
	}
	return m
}

// mergeMoments combines the moments of two disjoint point sets of sizes na
// and nb by the parallel-axis rule: the merged centroid c lies on the
// segment between theirs, and each side's scatter about c is its own
// scatter plus its count times its centroid's squared distance to c.
func mergeMoments(a moment, na int, b moment, nb int) moment {
	fa, fb := float64(na), float64(nb)
	f := fb / (fa + fb)
	m := moment{cx: a.cx + f*(b.cx-a.cx), cy: a.cy + f*(b.cy-a.cy)}
	ax, ay := a.cx-m.cx, a.cy-m.cy
	bx, by := b.cx-m.cx, b.cy-m.cy
	m.s = a.s + b.s + fa*(ax*ax+ay*ay) + fb*(bx*bx+by*by)
	return m
}

// axisSlots is a slot range viewed along one axis: key is the split
// coordinate column, and a swap carries the other column and the index
// slice along.
type axisSlots struct {
	key, other []float64
	idx        []int
}

func (s axisSlots) swap(i, j int) {
	s.key[i], s.key[j] = s.key[j], s.key[i]
	s.other[i], s.other[j] = s.other[j], s.other[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
}

// quickselect partially sorts s so that slot k holds its sorted key and
// every key before it is <= every key after. Ranges of up to 8 slots are
// finished by insertion sort. The comparisons and swaps are those of the
// sort.Interface selection this replaced (sort.Sort insertion-sorts ranges
// that short), so the tree is slot for slot the same.
func (s axisSlots) quickselect(k int) {
	lo, hi := 0, len(s.key)
	for hi-lo > 8 {
		p := s.partition(lo, hi)
		switch {
		case p == k:
			return
		case k < p:
			hi = p
		default:
			lo = p + 1
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && s.key[j] < s.key[j-1]; j-- {
			s.swap(j, j-1)
		}
	}
}

// partition performs a Lomuto partition of slots [lo, hi) around a
// median-of-three pivot and returns the pivot's final slot.
func (s axisSlots) partition(lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median of three to resist sorted inputs.
	if s.key[mid] < s.key[lo] {
		s.swap(mid, lo)
	}
	if s.key[hi-1] < s.key[lo] {
		s.swap(hi-1, lo)
	}
	if s.key[hi-1] < s.key[mid] {
		s.swap(hi-1, mid)
	}
	s.swap(mid, hi-1) // pivot to end
	pivot := hi - 1
	pv := s.key[pivot] // the pivot stays put until the final swap
	key, other, idx := s.key[:pivot], s.other[:pivot], s.idx[:pivot]
	store := lo
	for i := lo; i < len(key); i++ {
		if key[i] < pv {
			key[i], key[store] = key[store], key[i]
			other[i], other[store] = other[store], other[i]
			idx[i], idx[store] = idx[store], idx[i]
			store++
		}
	}
	s.swap(store, pivot)
	return store
}

// RangeCount returns the number of indexed points within distance r of q
// (boundary inclusive), in O(sqrt(n) + k-ish) time by accepting and
// rejecting whole subtrees against the disc.
func (t *Tree) RangeCount(q geom.Point, r float64) int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.rangeCount(0, q, r*r)
}

func (t *Tree) rangeCount(ni int32, q geom.Point, r2 float64) int {
	n := &t.nodes[ni]
	if n.box.MinDist2(q) > r2 {
		return 0
	}
	if n.box.MaxDist2(q) <= r2 {
		return n.hi - n.lo
	}
	if n.left < 0 {
		c := 0
		for i := n.lo; i < n.hi; i++ {
			if t.dist2(i, q) <= r2 {
				c++
			}
		}
		return c
	}
	return t.rangeCount(n.left, q, r2) + t.rangeCount(n.right, q, r2)
}

// RangeQuery appends to dst the original indices of all points within
// distance r of q and returns the extended slice.
func (t *Tree) RangeQuery(q geom.Point, r float64, dst []int) []int {
	if len(t.nodes) == 0 {
		return dst
	}
	return t.rangeQuery(0, q, r*r, dst)
}

func (t *Tree) rangeQuery(ni int32, q geom.Point, r2 float64, dst []int) []int {
	n := &t.nodes[ni]
	if n.box.MinDist2(q) > r2 {
		return dst
	}
	if n.box.MaxDist2(q) <= r2 {
		return append(dst, t.idx[n.lo:n.hi]...)
	}
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			if t.dist2(i, q) <= r2 {
				dst = append(dst, t.idx[i])
			}
		}
		return dst
	}
	dst = t.rangeQuery(n.left, q, r2, dst)
	return t.rangeQuery(n.right, q, r2, dst)
}

// Nearest returns the original index of the point nearest to q and its
// distance. It returns (-1, +Inf) on an empty tree.
func (t *Tree) Nearest(q geom.Point) (int, float64) {
	var s Scratch
	idx, d2 := t.KNearest(q, 1, &s)
	if len(idx) == 0 {
		return -1, math.Inf(1)
	}
	return idx[0], math.Sqrt(d2[0])
}

// Scratch is the caller-owned state of KNearest: a fixed-capacity max-heap
// on squared distance holding the k best candidates seen so far, which the
// query then sorts in place into its result. The zero value is ready to
// use; it grows to the largest k asked of it and a query on a warm Scratch
// allocates nothing. Give each worker its own — a Scratch must not be
// shared by concurrent queries.
type Scratch struct {
	idx []int
	d2  []float64
	n   int
}

// KNearest returns the original indices of the k points nearest to q,
// ordered by increasing distance, and their squared distances (min(k, Len)
// of each; nil for k <= 0 or an empty tree). Both slices are s's own
// storage: they are valid until the next query through s, and a caller
// that keeps a result copies it out first.
func (t *Tree) KNearest(q geom.Point, k int, s *Scratch) (idx []int, d2 []float64) {
	if k <= 0 || len(t.nodes) == 0 {
		return nil, nil
	}
	if k > len(t.xs) {
		k = len(t.xs)
	}
	if cap(s.idx) < k {
		s.idx, s.d2 = make([]int, k), make([]float64, k)
	}
	s.idx, s.d2, s.n = s.idx[:k], s.d2[:k], 0
	t.kNearest(0, 0, q, s) // the root is never pruned: the heap is empty
	// Heapsort in place: each step moves the current maximum behind the
	// shrinking heap, leaving the candidates in increasing order.
	for s.n > 1 {
		s.n--
		s.swap(0, s.n)
		s.down(0)
	}
	return s.idx, s.d2
}

// kNearest visits node ni, whose box is at squared distance minD2 from q
// (computed once, by the parent, which also needed it to order its
// children).
func (t *Tree) kNearest(ni int32, minD2 float64, q geom.Point, h *Scratch) {
	k := len(h.idx)
	if h.n == k && minD2 > h.d2[0] {
		return
	}
	n := &t.nodes[ni]
	if n.left < 0 {
		for i := n.lo; i < n.hi; i++ {
			d2 := t.dist2(i, q)
			switch {
			case h.n < k:
				h.idx[h.n], h.d2[h.n] = t.idx[i], d2
				h.n++
				h.up(h.n - 1)
			case d2 < h.d2[0]: // a tie with the current k-th keeps the earlier point
				h.idx[0], h.d2[0] = t.idx[i], d2
				h.down(0)
			}
		}
		return
	}
	// Visit the child nearer to q first for tighter pruning.
	l, r := n.left, n.right
	dl, dr := t.nodes[l].box.MinDist2(q), t.nodes[r].box.MinDist2(q)
	if dl > dr {
		l, r, dl, dr = r, l, dr, dl
	}
	t.kNearest(l, dl, q, h)
	t.kNearest(r, dr, q, h)
}

func (h *Scratch) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.d2[parent] >= h.d2[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Scratch) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < h.n && h.d2[l] > h.d2[big] {
			big = l
		}
		if r < h.n && h.d2[r] > h.d2[big] {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

func (h *Scratch) swap(i, j int) {
	h.idx[i], h.d2[i], h.idx[j], h.d2[j] = h.idx[j], h.d2[j], h.idx[i], h.d2[i]
}

// Root returns the root node for a caller-driven traversal, or -1 on an
// empty tree. Node ids are stable for the tree's lifetime.
func (t *Tree) Root() int32 {
	if len(t.nodes) == 0 {
		return -1
	}
	return 0
}

// Children returns node ni's children, or (-1, -1) for a leaf.
func (t *Tree) Children(ni int32) (left, right int32) {
	n := &t.nodes[ni]
	return n.left, n.right
}

// NodeBox returns the bounding box of node ni's points.
func (t *Tree) NodeBox(ni int32) geom.BBox { return t.nodes[ni].box }

// NodeMoments returns node ni's point count, centroid c and scatter
// s = Σ|pᵢ−c|² about it, from which Σ|pᵢ−q|² = s + count·|c−q|² for any q.
func (t *Tree) NodeMoments(ni int32) (count int, c geom.Point, s float64) {
	n, m := &t.nodes[ni], &t.moments[ni]
	return n.hi - n.lo, geom.Point{X: m.cx, Y: m.cy}, m.s
}

// NodeColumns returns the coordinates of node ni's points in slot order.
// The slices alias the tree's storage and are read-only.
func (t *Tree) NodeColumns(ni int32) (xs, ys []float64) {
	n := &t.nodes[ni]
	return t.xs[n.lo:n.hi], t.ys[n.lo:n.hi]
}
