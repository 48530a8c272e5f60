package kdtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geostat/internal/geom"
)

// The sort.Interface selection the concrete axisSlots.quickselect replaced,
// kept as the reference it must reproduce comparison for comparison.

type refByAxis struct {
	key, other []float64
	idx        []int
}

func (s *refByAxis) Len() int           { return len(s.key) }
func (s *refByAxis) Less(i, j int) bool { return s.key[i] < s.key[j] }
func (s *refByAxis) Swap(i, j int) {
	s.key[i], s.key[j] = s.key[j], s.key[i]
	s.other[i], s.other[j] = s.other[j], s.other[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
}

type refRange struct {
	s      *refByAxis
	lo, hi int
}

func (r *refRange) Len() int           { return r.hi - r.lo }
func (r *refRange) Less(i, j int) bool { return r.s.Less(r.lo+i, r.lo+j) }
func (r *refRange) Swap(i, j int)      { r.s.Swap(r.lo+i, r.lo+j) }

func refQuickselect(s *refByAxis, k int) {
	lo, hi := 0, s.Len()
	for hi-lo > 8 {
		p := refPartition(s, lo, hi)
		switch {
		case p == k:
			return
		case k < p:
			hi = p
		default:
			lo = p + 1
		}
	}
	sort.Sort(&refRange{s, lo, hi})
}

func refPartition(s *refByAxis, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if s.Less(mid, lo) {
		s.Swap(mid, lo)
	}
	if s.Less(hi-1, lo) {
		s.Swap(hi-1, lo)
	}
	if s.Less(hi-1, mid) {
		s.Swap(hi-1, mid)
	}
	s.Swap(mid, hi-1)
	pivot := hi - 1
	store := lo
	for i := lo; i < pivot; i++ {
		if s.Less(i, pivot) {
			s.Swap(i, store)
			store++
		}
	}
	s.Swap(store, pivot)
	return store
}

// refTree builds the tree the way the sort.Interface build did: slots and
// nodes only, no moments.
func refTree(pts []geom.Point) *Tree {
	xs, ys := geom.SplitXY(pts)
	t := &Tree{xs: xs, ys: ys, idx: make([]int, len(xs))}
	for i := range t.idx {
		t.idx[i] = i
	}
	if len(xs) > 0 {
		refBuild(t, 0, len(xs))
	}
	return t
}

func refBuild(t *Tree, lo, hi int) int32 {
	ni := int32(len(t.nodes))
	box := geom.EmptyBBox()
	for i := lo; i < hi; i++ {
		box = box.ExtendPoint(geom.Point{X: t.xs[i], Y: t.ys[i]})
	}
	t.nodes = append(t.nodes, node{box: box, lo: lo, hi: hi, left: -1, right: -1})
	if hi-lo <= leafSize {
		return ni
	}
	mid := (hi - lo) / 2
	sub := &refByAxis{key: t.xs[lo:hi], other: t.ys[lo:hi], idx: t.idx[lo:hi]}
	if box.Width() < box.Height() {
		sub.key, sub.other = sub.other, sub.key
	}
	refQuickselect(sub, mid)
	left := refBuild(t, lo, lo+mid)
	right := refBuild(t, lo+mid, hi)
	t.nodes[ni].left = left
	t.nodes[ni].right = right
	return ni
}

// buildFixtures are the inputs the selection is held to: uniform, clustered
// and duplicate-heavy (ties on the split key at every level), at sizes
// around a leaf and well past it.
func buildFixtures() map[string][]geom.Point {
	r := rand.New(rand.NewSource(21))
	fixtures := map[string][]geom.Point{}
	for _, n := range []int{1, leafSize, leafSize + 1, 100, 20000} {
		uniform := randomPoints(r, n)
		clustered := make([]geom.Point, n)
		dups := make([]geom.Point, n)
		for i := range clustered {
			c := geom.Point{X: 20 + 30*float64(i%4), Y: 50 + 25*float64(i%3)}
			clustered[i] = geom.Point{X: c.X + r.NormFloat64()*3, Y: c.Y + r.NormFloat64()*3}
			dups[i] = geom.Point{X: float64(r.Intn(6)), Y: float64(r.Intn(3))}
		}
		for name, pts := range map[string][]geom.Point{"uniform": uniform, "clustered": clustered, "duplicates": dups} {
			fixtures[fmt.Sprintf("%s/%d", name, n)] = pts
		}
	}
	return fixtures
}

// TestBuildMatchesSortInterfaceReference: the concrete quickselect builds
// the same slot order, coordinate columns and nodes as the sort.Interface
// selection, so every query answer (and every pinned digest) is unchanged.
func TestBuildMatchesSortInterfaceReference(t *testing.T) {
	for name, pts := range buildFixtures() {
		got, want := New(pts), refTree(pts)
		if !slices.Equal(got.idx, want.idx) || !slices.Equal(got.xs, want.xs) || !slices.Equal(got.ys, want.ys) {
			t.Fatalf("%s (n=%d): slot order differs from the sort.Interface build", name, len(pts))
		}
		if !slices.Equal(got.nodes, want.nodes) {
			t.Fatalf("%s (n=%d): nodes differ from the sort.Interface build", name, len(pts))
		}
		if len(got.moments) != len(got.nodes) || cap(got.nodes) != len(got.nodes) {
			t.Fatalf("%s (n=%d): %d moments, %d nodes (cap %d)", name, len(pts), len(got.moments), len(got.nodes), cap(got.nodes))
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	r := rand.New(rand.NewSource(22))
	pts := make([]geom.Point, 100000)
	for i := range pts {
		c := geom.Point{X: 20 + 30*float64(i%4), Y: 50 + 25*float64(i%3)}
		pts[i] = geom.Point{X: c.X + r.NormFloat64()*3, Y: c.Y + r.NormFloat64()*3}
	}
	xs, ys := geom.SplitXY(pts)
	b.Run("concrete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewColumns(xs, ys)
		}
	})
	b.Run("sort.Interface", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refTree(pts)
		}
	})
}
