package geom

import (
	"fmt"
	"math"
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

// checkRun fails unless [lo, hi) holds exactly the cells of [0, n) that
// pass, the kernel's own support test. what names the call, lazily.
func checkRun(t *testing.T, what func() string, lo, hi, n int, pass func(i int) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if pass(i) != (i >= lo && i < hi) {
			t.Fatalf("%s = [%d,%d): cell %d passes=%t", what(), lo, hi, i, pass(i))
		}
	}
}

// colPasses and rowPasses return the kernel test of a pixel column on a
// row dy from the point, and of a pixel row.
func colPasses(g PixelGrid, b, x, dy float64) func(ix int) bool {
	return func(ix int) bool {
		dx := x - g.CenterX(ix)
		return dx*dx+dy*dy <= b*b
	}
}

func rowPasses(g PixelGrid, b, y float64) func(iy int) bool {
	return func(iy int) bool {
		dy := y - g.CenterY(iy)
		return dy*dy <= b*b
	}
}

// Property: Footprint's Cols and Rows return exactly the pixels whose
// centres pass the kernel test, verified against a brute-force scan over
// random points, bandwidths and row offsets — on the test grid, and on
// UTM-sized ones where pixel centres and support ends round.
func TestAxisRangeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	grids := []PixelGrid{testGrid()}
	for _, off := range []float64{5e5, 3.3e6} {
		grids = append(grids, NewPixelGrid(BBox{MinX: off, MinY: off, MaxX: off + 6.3, MaxY: off + 0.7}, 9, 7))
	}
	for _, g := range grids {
		w, h := g.Box.Width(), g.Box.Height()
		for trial := 0; trial < 5000; trial++ {
			b := r.Float64() * 0.3 * w
			if trial%4 == 0 { // support ends on pixel centres
				b = float64(1+r.Intn(4)) * g.CellW() / 2
			}
			fp := g.Footprint(b)
			x := g.Box.MinX + r.Float64()*1.4*w - 0.2*w
			dy := (r.Float64()*2.2 - 1.1) * b
			switch trial % 5 {
			case 1:
				dy = b
			case 2:
				dy = math.Nextafter(b, 0)
			case 3: // dy = b leaves a run of half-width ≈ 2⁻²⁶·b round x
				x, dy = g.CenterX(r.Intn(g.NX))+(r.Float64()*2-1)*0x1p-25*b, b
			}
			lo, hi := fp.Cols(x, dy)
			checkRun(t, func() string { return fmt.Sprintf("Cols(%v, %v) b=%v on %+v", x, dy, b, g) }, lo, hi, g.NX, colPasses(g, b, x, dy))
			y := g.Box.MinY + r.Float64()*1.4*h - 0.2*h
			lo, hi = fp.Rows(y)
			checkRun(t, func() string { return fmt.Sprintf("Rows(%v) b=%v on %+v", y, b, g) }, lo, hi, g.NY, rowPasses(g, b, y))
		}
	}
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

// Footprints and Locate clamp as floats: a radius or coordinate whose
// index overflows int (here 1e30 and 1e300 over 5-unit cells) must clamp to
// the grid, not wrap through the implementation-defined conversion.
func TestRangesClampHugeValues(t *testing.T) {
	g := testGrid()
	unit := g.Footprint(1)
	for _, r := range []float64{1e20, 1e30, 1e300} {
		fp := g.Footprint(r)
		if lo, hi := fp.Cols(50, 0); lo != 0 || hi != g.NX {
			t.Errorf("Footprint(%g).Cols(50, 0) = [%d,%d), want [0,%d)", r, lo, hi, g.NX)
		}
		if lo, hi := fp.Rows(25); lo != 0 || hi != g.NY {
			t.Errorf("Footprint(%g).Rows(25) = [%d,%d), want [0,%d)", r, lo, hi, g.NY)
		}
		for _, x := range []float64{-r, r} {
			if lo, hi := unit.Cols(x, 0); lo != hi {
				t.Errorf("Footprint(1).Cols(%g, 0) = [%d,%d), want empty", x, lo, hi)
			}
		}
		if ix, iy, _ := g.Locate(Point{r, r}); ix != g.NX-1 || iy != g.NY-1 {
			t.Errorf("Locate(%g, %g) = %d,%d, want the top-right pixel", r, r, ix, iy)
		}
	}
}

// FuzzFootprint holds Cols and Rows to the kernel test on fuzzer-chosen
// grids, bandwidths, points and row offsets. at picks a pixel centre to put
// the point a support radius from, and ulps nudges dy off b by that many
// ulps, so the fuzzer starts on the ties: centres at UTM offsets, cells
// below the coordinates' ulp, dy within a few ulps of b.
func FuzzFootprint(f *testing.F) {
	ulp33 := math.Nextafter(3.3e6, math.Inf(1)) - 3.3e6
	f.Add(0.0, 5.0, uint16(20), 4.0, 37.0, 1.5, uint16(0), int8(0))
	f.Add(3.3e6, 0.7, uint16(9), 1.235856500678855, 3.3000050858565005e6, 0.0, uint16(0), int8(0))
	f.Add(3.3e6, 0.1, uint16(2), 0.49110612946086346, 3.2999995588938706e6, 0.0, uint16(0), int8(0))
	f.Add(3.3e6, ulp33/64, uint16(65), 9.313225746154785e-10, 3.3000000000000014e6, 0.0, uint16(0), int8(0))
	f.Add(3.3e6, ulp33*3/45, uint16(45), 2.3283064365386963e-10, 3.3e6, 0.0, uint16(0), int8(0))
	f.Add(3.3e6, ulp33/16, uint16(64), ulp33/3, 3.3e6+2*ulp33, 0.0, uint16(0), int8(0))
	f.Add(5e5, 12.5, uint16(80), 33.0, 0.0, 0.0, uint16(17), int8(0))
	f.Add(5e5, 0.25, uint16(300), 3.0, 5e5+20, 0.0, uint16(0), int8(1))
	f.Add(-50.0, 1.0, uint16(100), 7.0, -20.0, 0.0, uint16(3), int8(-3))
	f.Add(0.0, 1.0, uint16(16), 1e300, 3.0, 2.0, uint16(0), int8(0))
	f.Add(0.0, 5.0, uint16(20), 4.0, 17.5+0x1p-25, 4.0, uint16(0), int8(0)) // d = b: a run of ≈ 2⁻²⁶·b
	f.Fuzz(func(t *testing.T, minX, cell float64, nx uint16, b, x, dy float64, at uint16, ulps int8) {
		n := int(nx) % 320
		if n == 0 || !(b > 0) || math.IsInf(b, 0) || math.IsNaN(x+dy) || math.IsInf(x+dy, 0) {
			return
		}
		box := BBox{MinX: minX, MinY: minX, MaxX: minX + float64(n)*cell, MaxY: minX + float64(n)*cell}
		if !(box.Width() > 0) || math.IsInf(box.Width(), 0) {
			return
		}
		g := NewPixelGrid(box, n, n)
		if at != 0 { // a support radius either side of a pixel centre
			x = g.CenterX(int(at)%n) + b*float64(int(at/1024)%3-1)
		}
		if ulps != 0 { // dy a few ulps off b
			dy = b
			for k := int(ulps); k != 0; {
				if k > 0 {
					dy, k = math.Nextafter(dy, math.Inf(1)), k-1
				} else {
					dy, k = math.Nextafter(dy, 0), k+1
				}
			}
		}
		fp := g.Footprint(b)
		lo, hi := fp.Cols(x, dy)
		checkRun(t, func() string { return fmt.Sprintf("Cols(%v, %v) b=%v on %+v", x, dy, b, g) }, lo, hi, n, colPasses(g, b, x, dy))
		lo, hi = fp.Rows(x)
		checkRun(t, func() string { return fmt.Sprintf("Rows(%v) b=%v on %+v", x, b, g) }, lo, hi, n, rowPasses(g, b, x))
		if _, iy, _ := g.Locate(Point{X: x, Y: x}); lo < hi && (lo < iy-fp.RowHalo() || hi-1 > iy+fp.RowHalo()) {
			t.Fatalf("Rows(%v) = [%d,%d) b=%v on %+v: beyond RowHalo %d of row %d", x, lo, hi, b, g, fp.RowHalo(), iy)
		}
	})
}
