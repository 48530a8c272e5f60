package geom

import (
	"math/rand"
	"testing"
)

func testGrid() PixelGrid {
	return NewPixelGrid(BBox{0, 0, 100, 50}, 20, 10)
}

func TestPixelGridBasics(t *testing.T) {
	g := testGrid()
	if g.CellW() != 5 || g.CellH() != 5 {
		t.Fatalf("cell = %v×%v, want 5×5", g.CellW(), g.CellH())
	}
	if g.NumPixels() != 200 {
		t.Fatalf("NumPixels = %d", g.NumPixels())
	}
	if c := g.Center(0, 0); c != (Point{2.5, 2.5}) {
		t.Errorf("Center(0,0) = %v", c)
	}
	if c := g.Center(19, 9); c != (Point{97.5, 47.5}) {
		t.Errorf("Center(19,9) = %v", c)
	}
	if g.CenterX(3) != g.Center(3, 0).X || g.CenterY(7) != g.Center(0, 7).Y {
		t.Error("CenterX/CenterY disagree with Center")
	}
	if g.Index(3, 2) != 2*20+3 {
		t.Errorf("Index = %d", g.Index(3, 2))
	}
}

func TestNewPixelGridPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"zero nx", func() { NewPixelGrid(BBox{0, 0, 1, 1}, 0, 5) }},
		{"negative ny", func() { NewPixelGrid(BBox{0, 0, 1, 1}, 5, -1) }},
		{"empty box", func() { NewPixelGrid(EmptyBBox(), 5, 5) }},
		{"degenerate box", func() { NewPixelGrid(BBox{0, 0, 0, 1}, 5, 5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestLocate(t *testing.T) {
	g := testGrid()
	ix, iy, in := g.Locate(Point{2.5, 2.5})
	if ix != 0 || iy != 0 || !in {
		t.Errorf("Locate center of (0,0) = %d,%d,%v", ix, iy, in)
	}
	ix, iy, in = g.Locate(Point{99.9, 49.9})
	if ix != 19 || iy != 9 || !in {
		t.Errorf("Locate near max = %d,%d,%v", ix, iy, in)
	}
	ix, iy, in = g.Locate(Point{-5, 200})
	if in {
		t.Error("outside point reported inside")
	}
	if ix != 0 || iy != 9 {
		t.Errorf("clamping = %d,%d, want 0,9", ix, iy)
	}
}

// Property: Locate(Center(ix,iy)) round-trips for every pixel.
func TestLocateCenterRoundTrip(t *testing.T) {
	g := testGrid()
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			jx, jy, in := g.Locate(g.Center(ix, iy))
			if jx != ix || jy != iy || !in {
				t.Fatalf("round-trip (%d,%d) -> (%d,%d,%v)", ix, iy, jx, jy, in)
			}
		}
	}
}

// Property: ColRange/RowRange return exactly the centers within distance r,
// verified against a brute-force scan over random query positions.
func TestAxisRangeMatchesBruteForce(t *testing.T) {
	g := testGrid()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5000; trial++ {
		x := r.Float64()*140 - 20
		rad := r.Float64() * 30
		lo, hi := g.ColRange(x, rad)
		for ix := 0; ix < g.NX; ix++ {
			within := abs(g.CenterX(ix)-x) <= rad
			inRange := ix >= lo && ix < hi
			if within != inRange {
				t.Fatalf("ColRange(%v,%v)=[%d,%d): col %d center %v mismatch",
					x, rad, lo, hi, ix, g.CenterX(ix))
			}
		}
		y := r.Float64()*90 - 20
		lo, hi = g.RowRange(y, rad)
		for iy := 0; iy < g.NY; iy++ {
			within := abs(g.CenterY(iy)-y) <= rad
			inRange := iy >= lo && iy < hi
			if within != inRange {
				t.Fatalf("RowRange(%v,%v)=[%d,%d): row %d center %v mismatch",
					y, rad, lo, hi, iy, g.CenterY(iy))
			}
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestSupportBox(t *testing.T) {
	g := NewPixelGrid(BBox{MinX: -50, MinY: 10, MaxX: 150, MaxY: 170}, 37, 29)
	w := GridWindow{X0: 9, Y0: 7, NX: 10, NY: 8}
	if got, want := g.SupportBox(w, 12.5), g.WindowBox(w).Pad(12.5); got != want {
		t.Errorf("SupportBox(window) = %+v, want the window's pixel box padded: %+v", got, want)
	}
	if got, want := g.SupportBox(GridWindow{}, 3), g.SupportBox(g.FullWindow(), 3); got != want {
		t.Errorf("zero window = %+v, want the whole grid's %+v", got, want)
	}
	// Every pixel center's r-disc lies inside the box, with half a cell to
	// spare on each side.
	r := 3.0
	sb := g.SupportBox(w, r)
	for _, c := range []Point{g.Center(w.X0, w.Y0), g.Center(w.X0+w.NX-1, w.Y0+w.NY-1)} {
		for _, p := range []Point{{c.X - r, c.Y}, {c.X + r, c.Y}, {c.X, c.Y - r}, {c.X, c.Y + r}} {
			if !sb.Contains(p) {
				t.Errorf("point %+v at distance r of center %+v outside %+v", p, c, sb)
			}
		}
	}
}

// Ranges and Locate clamp as floats: a radius or coordinate whose index
// overflows int (here 1e30 and 1e300 over 5-unit cells) must clamp to the
// grid, not wrap through the implementation-defined conversion.
func TestRangesClampHugeValues(t *testing.T) {
	g := testGrid()
	for _, r := range []float64{1e20, 1e30, 1e300} {
		if lo, hi := g.ColRange(50, r); lo != 0 || hi != g.NX {
			t.Errorf("ColRange(50, %g) = [%d,%d), want [0,%d)", r, lo, hi, g.NX)
		}
		if lo, hi := g.RowRange(25, r); lo != 0 || hi != g.NY {
			t.Errorf("RowRange(25, %g) = [%d,%d), want [0,%d)", r, lo, hi, g.NY)
		}
		if lo, hi := g.ColRange(-r, 1); lo != 0 || hi != 0 {
			t.Errorf("ColRange(%g, 1) = [%d,%d), want empty at 0", -r, lo, hi)
		}
		if lo, hi := g.ColRange(r, 1); lo != g.NX || hi != g.NX {
			t.Errorf("ColRange(%g, 1) = [%d,%d), want empty at %d", r, lo, hi, g.NX)
		}
		if ix, iy, _ := g.Locate(Point{r, r}); ix != g.NX-1 || iy != g.NY-1 {
			t.Errorf("Locate(%g, %g) = %d,%d, want the top-right pixel", r, r, ix, iy)
		}
	}
}
