package raster

import (
	"math"
	"testing"

	"geostat/internal/geom"
)

// radialGrid builds a surface f(p) = R − dist(p, center): its iso-line at
// level v is the circle of radius R − v.
func radialGrid(n int) *Grid {
	spec := geom.NewPixelGrid(geom.BBox{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, n, n)
	g := NewGrid(spec)
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			g.Set(ix, iy, 10-spec.Center(ix, iy).Norm())
		}
	}
	return g
}

func TestContourCircle(t *testing.T) {
	g := radialGrid(100)
	const level = 5.0 // iso-circle radius 5
	segs := g.Contour(level)
	if len(segs) < 40 {
		t.Fatalf("only %d segments", len(segs))
	}
	totalLen := 0.0
	for _, s := range segs {
		for _, p := range []geom.Point{s.A, s.B} {
			if r := p.Norm(); math.Abs(r-5) > 0.15 {
				t.Fatalf("contour point at radius %v, want 5", r)
			}
		}
		totalLen += s.A.Dist(s.B)
	}
	// Total length ≈ circumference 2π·5.
	if want := 2 * math.Pi * 5; math.Abs(totalLen-want)/want > 0.03 {
		t.Errorf("contour length %v, want ≈ %v", totalLen, want)
	}
}

func TestContourNoCrossing(t *testing.T) {
	g := radialGrid(30)
	if segs := g.Contour(1e9); len(segs) != 0 {
		t.Errorf("level above max produced %d segments", len(segs))
	}
	if segs := g.Contour(-1e9); len(segs) != 0 {
		t.Errorf("level below min produced %d segments", len(segs))
	}
}

func TestContourSaddle(t *testing.T) {
	// A 2x2-cell saddle: opposite corners high.
	spec := geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}, 2, 2)
	g := NewGrid(spec)
	g.Set(0, 0, 1)
	g.Set(1, 1, 1)
	g.Set(1, 0, -1)
	g.Set(0, 1, -1)
	segs := g.Contour(0)
	// Saddle cell must produce exactly two segments.
	if len(segs) != 2 {
		t.Fatalf("saddle produced %d segments, want 2", len(segs))
	}
	for _, s := range segs {
		if s.A == s.B {
			t.Error("degenerate segment")
		}
	}
}

func TestAreaAbove(t *testing.T) {
	g := radialGrid(200)
	// Area above level 5 ≈ area of the radius-5 disc.
	got := g.AreaAbove(5)
	want := math.Pi * 25
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("AreaAbove = %v, want ≈ %v", got, want)
	}
	if g.AreaAbove(1e9) != 0 {
		t.Error("area above max should be 0")
	}
	full := g.Spec.Box.Area()
	if a := g.AreaAbove(-1e9); math.Abs(a-full) > 1e-9 {
		t.Errorf("area above min = %v, want %v", a, full)
	}
}

func TestCountGrid(t *testing.T) {
	spec := geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 2, 2)
	pts := []geom.Point{
		{X: 1, Y: 1}, {X: 2, Y: 2}, // bottom-left cell
		{X: 7, Y: 8},   // top-right
		{X: 50, Y: 50}, // outside: ignored
	}
	xs, ys := geom.SplitXY(pts)
	g := CountGrid(xs, ys, spec)
	if g.At(0, 0) != 2 {
		t.Errorf("cell(0,0) = %v", g.At(0, 0))
	}
	if g.At(1, 1) != 1 {
		t.Errorf("cell(1,1) = %v", g.At(1, 1))
	}
	if g.Sum() != 3 {
		t.Errorf("total = %v (outside point must not count)", g.Sum())
	}
}
