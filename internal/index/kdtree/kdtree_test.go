package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"geostat/internal/geom"
)

func randomPoints(r *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	return pts
}

func bruteRangeCount(pts []geom.Point, q geom.Point, rad float64) int {
	c := 0
	for _, p := range pts {
		if p.Dist2(q) <= rad*rad {
			c++
		}
	}
	return c
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.RangeCount(geom.Point{}, 10); got != 0 {
		t.Errorf("RangeCount = %d", got)
	}
	if got := tr.RangeQuery(geom.Point{}, 10, nil); len(got) != 0 {
		t.Errorf("RangeQuery = %v", got)
	}
	if i, d := tr.Nearest(geom.Point{}); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest = %d, %v", i, d)
	}
	if !tr.Bounds().IsEmpty() {
		t.Error("Bounds should be empty")
	}
	if tr.Root() != -1 {
		t.Errorf("Root = %d on an empty tree, want -1", tr.Root())
	}
}

func TestInputNotModified(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randomPoints(r, 200)
	orig := append([]geom.Point(nil), pts...)
	New(pts)
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatal("New modified its input slice")
		}
	}
}

func TestRangeCountMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 7, 16, 17, 100, 1000} {
		pts := randomPoints(r, n)
		tr := New(pts)
		for trial := 0; trial < 200; trial++ {
			q := geom.Point{X: r.Float64()*120 - 10, Y: r.Float64()*120 - 10}
			rad := r.Float64() * 40
			want := bruteRangeCount(pts, q, rad)
			if got := tr.RangeCount(q, rad); got != want {
				t.Fatalf("n=%d: RangeCount(%v, %v) = %d, want %d", n, q, rad, got, want)
			}
		}
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPoints(r, 500)
	tr := New(pts)
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		rad := r.Float64() * 30
		got := tr.RangeQuery(q, rad, nil)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if p.Dist2(q) <= rad*rad {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("RangeQuery size %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("RangeQuery[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: 5, Y: 5} // all identical
	}
	tr := New(pts)
	if got := tr.RangeCount(geom.Point{X: 5, Y: 5}, 0); got != 100 {
		t.Errorf("RangeCount at duplicate site = %d, want 100", got)
	}
	if got := tr.RangeCount(geom.Point{X: 6, Y: 5}, 0.5); got != 0 {
		t.Errorf("RangeCount away = %d, want 0", got)
	}
}

func TestNearest(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPoints(r, 300)
	tr := New(pts)
	for trial := 0; trial < 200; trial++ {
		q := geom.Point{X: r.Float64()*140 - 20, Y: r.Float64()*140 - 20}
		gi, gd := tr.Nearest(q)
		wi, wd := -1, math.Inf(1)
		for i, p := range pts {
			if d := p.Dist(q); d < wd {
				wi, wd = i, d
			}
		}
		if math.Abs(gd-wd) > 1e-9 {
			t.Fatalf("Nearest dist = %v, want %v", gd, wd)
		}
		if pts[gi].Dist(q) != gd {
			t.Fatalf("Nearest index %d inconsistent with distance", gi)
		}
		_ = wi
	}
}

func TestKNearest(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randomPoints(r, 400)
	tr := New(pts)
	for _, k := range []int{1, 3, 10, 50, 400, 500} {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		idx, d2 := tr.KNearest(q, k, new(Scratch))
		wantK := k
		if wantK > len(pts) {
			wantK = len(pts)
		}
		if len(idx) != wantK || len(d2) != wantK {
			t.Fatalf("k=%d: got %d results", k, len(idx))
		}
		// Distances must be sorted ascending and match the points.
		for i := range idx {
			if got := pts[idx[i]].Dist2(q); math.Abs(got-d2[i]) > 1e-9 {
				t.Fatalf("k=%d: d2[%d] = %v but point dist2 = %v", k, i, d2[i], got)
			}
			if i > 0 && d2[i] < d2[i-1] {
				t.Fatalf("k=%d: distances not sorted at %d", k, i)
			}
		}
		// The k-th distance must match a brute-force selection.
		all := make([]float64, len(pts))
		for i, p := range pts {
			all[i] = p.Dist2(q)
		}
		sort.Float64s(all)
		if math.Abs(d2[wantK-1]-all[wantK-1]) > 1e-9 {
			t.Fatalf("k=%d: kth dist %v, want %v", k, d2[wantK-1], all[wantK-1])
		}
	}
	if idx, _ := tr.KNearest(geom.Point{}, 0, new(Scratch)); idx != nil {
		t.Error("k=0 should return nil")
	}
}

// TestNodeAccessorsCoverEveryPoint: a descent through Root / Children
// reaches every point exactly once in the leaves' NodeColumns, every node's
// count is the sum of its children's, and every point lies in the box of
// each node above it.
func TestNodeAccessorsCoverEveryPoint(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randomPoints(r, 333)
	tr := New(pts)
	seen := map[geom.Point]int{}
	var walk func(ni int32, boxes []geom.BBox) int
	walk = func(ni int32, boxes []geom.BBox) int {
		boxes = append(boxes, tr.NodeBox(ni))
		count, _, _ := tr.NodeMoments(ni)
		l, rt := tr.Children(ni)
		if l < 0 {
			xs, ys := tr.NodeColumns(ni)
			if len(xs) != count || len(ys) != count || count == 0 || count > leafSize {
				t.Fatalf("leaf %d: %d/%d columns for count %d", ni, len(xs), len(ys), count)
			}
			for i := range xs {
				p := geom.Point{X: xs[i], Y: ys[i]}
				for _, b := range boxes {
					if !b.Contains(p) {
						t.Fatalf("point %v outside the box %v of a node above it", p, b)
					}
				}
				seen[p]++
			}
			return count
		}
		if got := walk(l, boxes) + walk(rt, boxes); got != count {
			t.Fatalf("node %d: count %d, children hold %d", ni, count, got)
		}
		return count
	}
	if total := walk(tr.Root(), nil); total != len(pts) {
		t.Fatalf("root count %d, want %d", total, len(pts))
	}
	for _, p := range pts {
		if seen[p] != 1 {
			t.Fatalf("point %v reached %d times", p, seen[p])
		}
	}
}

// TestNodeMomentsMatchDirectSums: every node's centroid and scatter agree
// with sums taken directly over its points, and s + n·|c−q|² reproduces
// Σ|pᵢ−q|², on every plane fixture including the UTM-offset one, where
// uncentred sums would cancel.
func TestNodeMomentsMatchDirectSums(t *testing.T) {
	for name, pts := range planeFixtures() {
		tr := New(pts)
		if tr.Root() < 0 {
			continue
		}
		box := tr.Bounds()
		q := geom.Point{X: box.MinX - 3, Y: box.MaxY + 1.5}
		for ni := int32(0); int(ni) < len(tr.nodes); ni++ {
			n := &tr.nodes[ni]
			count, c, s := tr.NodeMoments(ni)
			var sx, sy float64
			for i := n.lo; i < n.hi; i++ {
				sx += tr.xs[i] - box.MinX
				sy += tr.ys[i] - box.MinY
			}
			wantC := geom.Point{X: box.MinX + sx/float64(count), Y: box.MinY + sy/float64(count)}
			var wantS, wantQ float64
			for i := n.lo; i < n.hi; i++ {
				p := geom.Point{X: tr.xs[i], Y: tr.ys[i]}
				wantS += p.Dist2(wantC)
				wantQ += p.Dist2(q)
			}
			scale := 1 + box.Width() + box.Height()
			if c.Dist(wantC) > 1e-9*scale || math.Abs(s-wantS) > 1e-9*(1+wantS) {
				t.Fatalf("%s node %d: centroid %v scatter %v, direct %v %v", name, ni, c, s, wantC, wantS)
			}
			if got := s + float64(count)*c.Dist2(q); math.Abs(got-wantQ) > 1e-9*wantQ {
				t.Fatalf("%s node %d: s + n|c-q|² = %v, direct Σ|p-q|² = %v", name, ni, got, wantQ)
			}
		}
	}
}

func TestCollinearPoints(t *testing.T) {
	// Degenerate geometry: all points on a horizontal line.
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i), Y: 3}
	}
	tr := New(pts)
	if got := tr.RangeCount(geom.Point{X: 250, Y: 3}, 10); got != 21 {
		t.Errorf("collinear RangeCount = %d, want 21", got)
	}
}
