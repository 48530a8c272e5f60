package balltree

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

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if got := tr.RangeCount(geom.Point{}, 5); got != 0 {
		t.Errorf("RangeCount = %d", got)
	}
	if got := tr.RangeQuery(geom.Point{}, 5, nil); len(got) != 0 {
		t.Errorf("RangeQuery = %v", got)
	}
}

func TestRangeCountMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 15, 16, 17, 300, 2000} {
		pts := randomPoints(r, n)
		tr := New(pts)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for trial := 0; trial < 100; trial++ {
			q := geom.Point{X: r.Float64()*140 - 20, Y: r.Float64()*140 - 20}
			rad := r.Float64() * 35
			want := 0
			for _, p := range pts {
				if p.Dist2(q) <= rad*rad {
					want++
				}
			}
			if got := tr.RangeCount(q, rad); got != want {
				t.Fatalf("n=%d: RangeCount(%v,%v) = %d, want %d", n, q, rad, got, want)
			}
		}
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randomPoints(r, 600)
	tr := New(pts)
	for trial := 0; trial < 80; trial++ {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		rad := r.Float64() * 25
		got := tr.RangeQuery(q, rad, nil)
		sort.Ints(got)
		var want []int
		for i, p := range pts {
			if p.Dist2(q) <= rad*rad {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("size %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("idx mismatch at %d", i)
			}
		}
	}
}

func TestAllIdenticalPoints(t *testing.T) {
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{X: -4, Y: 9}
	}
	tr := New(pts) // exercises the degenerate-split guard
	if got := tr.RangeCount(geom.Point{X: -4, Y: 9}, 0); got != 200 {
		t.Errorf("count = %d, want 200", got)
	}
}

// Property (testing/quick style): counts from ball-tree and a shuffled
// rebuild agree — the structure must not depend on input order.
func TestOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randomPoints(r, 400)
	shuffled := append([]geom.Point(nil), pts...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	t1, t2 := New(pts), New(shuffled)
	for trial := 0; trial < 100; trial++ {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		rad := math.Abs(r.NormFloat64()) * 20
		if a, b := t1.RangeCount(q, rad), t2.RangeCount(q, rad); a != b {
			t.Fatalf("order-dependent counts: %d vs %d", a, b)
		}
	}
}
