package grid

import (
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

func TestEmptyIndex(t *testing.T) {
	g := New(nil, 5)
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
	if got := g.RangeCount(geom.Point{}, 100); got != 0 {
		t.Errorf("RangeCount = %d", got)
	}
	if got := g.RangeQuery(geom.Point{}, 100, nil); len(got) != 0 {
		t.Errorf("RangeQuery = %v", got)
	}
	g.ForEachInRange(geom.Point{}, 100, func(int, float64) { t.Error("callback on empty index") })
}

func TestRangeCountMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 500, 3000} {
		for _, cell := range []float64{0.5, 5, 50, 500} {
			pts := randomPoints(r, n)
			g := New(pts, cell)
			for trial := 0; trial < 60; trial++ {
				q := geom.Point{X: r.Float64()*140 - 20, Y: r.Float64()*140 - 20}
				rad := r.Float64() * 30
				want := 0
				for _, p := range pts {
					if p.Dist2(q) <= rad*rad {
						want++
					}
				}
				if got := g.RangeCount(q, rad); got != want {
					t.Fatalf("n=%d cell=%v: RangeCount(%v,%v)=%d, want %d", n, cell, q, rad, got, want)
				}
			}
		}
	}
}

func TestRangeQueryAndForEachAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randomPoints(r, 800)
	g := New(pts, 7)
	for trial := 0; trial < 50; trial++ {
		q := geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
		rad := r.Float64() * 25
		got := g.RangeQuery(q, rad, nil)
		sort.Ints(got)
		var each []int
		g.ForEachInRange(q, rad, func(i int, d2 float64) {
			if d2 > rad*rad {
				t.Fatalf("ForEachInRange leaked d2=%v > r²=%v", d2, rad*rad)
			}
			if dd := pts[i].Dist2(q); dd != d2 {
				t.Fatalf("reported d2 %v != actual %v", d2, dd)
			}
			each = append(each, i)
		})
		sort.Ints(each)
		if len(got) != len(each) {
			t.Fatalf("RangeQuery %d vs ForEach %d", len(got), len(each))
		}
		for i := range got {
			if got[i] != each[i] {
				t.Fatalf("mismatch at %d: %d vs %d", i, got[i], each[i])
			}
		}
		if want := g.RangeCount(q, rad); want != len(got) {
			t.Fatalf("RangeCount %d vs RangeQuery %d", want, len(got))
		}
	}
}

func TestZeroRadius(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 1}}
	g := New(pts, 1)
	if got := g.RangeCount(geom.Point{X: 1, Y: 1}, 0); got != 2 {
		t.Errorf("zero-radius count at duplicate = %d, want 2", got)
	}
	if got := g.RangeCount(geom.Point{X: 1.5, Y: 1.5}, -1); got != 0 {
		t.Errorf("negative radius count = %d, want 0", got)
	}
}

func TestSinglePointAndDegenerateExtent(t *testing.T) {
	pts := []geom.Point{{X: 5, Y: 5}}
	g := New(pts, 2)
	if got := g.RangeCount(geom.Point{X: 5, Y: 5}, 0.1); got != 1 {
		t.Errorf("count = %d", got)
	}
	// All points on a vertical line: width 0.
	var line []geom.Point
	for i := 0; i < 50; i++ {
		line = append(line, geom.Point{X: 3, Y: float64(i)})
	}
	g = New(line, 5)
	if got := g.RangeCount(geom.Point{X: 3, Y: 25}, 5.5); got != 11 {
		t.Errorf("line count = %d, want 11", got)
	}
}

func TestAutoCellSize(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPoints(r, 100)
	g := New(pts, 0) // invalid cell size: falls back to one cell
	if got, want := g.RangeCount(geom.Point{X: 50, Y: 50}, 200), 100; got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

func TestCellCapClamp(t *testing.T) {
	// A tiny cell size over a wide extent must not explode memory; the
	// constructor clamps total cells.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 1e6, Y: 1e6}}
	g := New(pts, 1e-6)
	if got := g.RangeCount(geom.Point{X: 0, Y: 0}, 1); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

// A radius or coordinate whose cell index overflows int must clamp to the
// grid: every point is within 1e30 of any query, and a far-off query
// still lands in an edge cell.
func TestHugeRadiusClamps(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(4)), 200)
	g := New(pts, 1)
	for _, r := range []float64{1e20, 1e30, 1e300} {
		if got := g.RangeCount(geom.Point{X: 50, Y: 50}, r); got != len(pts) {
			t.Errorf("RangeCount(r=%g) = %d, want %d", r, got, len(pts))
		}
		if got := g.RangeCount(geom.Point{X: r, Y: -r}, 2*r); got != len(pts) {
			t.Errorf("RangeCount at (%g,%g), r=%g = %d, want %d", r, -r, 2*r, got, len(pts))
		}
	}
	if tiny := New(pts, 1e-300); tiny.nx*tiny.ny < 2 {
		t.Errorf("cell size 1e-300 built a %dx%d index; it should clamp to the cell cap, not collapse to one cell", tiny.nx, tiny.ny)
	}
}
