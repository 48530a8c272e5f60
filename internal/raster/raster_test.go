package raster

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"geostat/internal/geom"
)

func spec() geom.PixelGrid {
	return geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}, 10, 5)
}

func TestGridAccessors(t *testing.T) {
	g := NewGrid(spec())
	if len(g.Values) != 50 {
		t.Fatalf("len = %d", len(g.Values))
	}
	g.Set(3, 2, 7)
	if g.At(3, 2) != 7 {
		t.Errorf("At = %v", g.At(3, 2))
	}
	g.Add(3, 2, 1.5)
	if g.At(3, 2) != 8.5 {
		t.Errorf("Add = %v", g.At(3, 2))
	}
	if g.Sum() != 8.5 {
		t.Errorf("Sum = %v", g.Sum())
	}
	lo, hi := g.MinMax()
	if lo != 0 || hi != 8.5 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	ix, iy, v := g.ArgMax()
	if ix != 3 || iy != 2 || v != 8.5 {
		t.Errorf("ArgMax = %d, %d, %v", ix, iy, v)
	}
}

func TestDiffs(t *testing.T) {
	a, b := NewGrid(spec()), NewGrid(spec())
	a.Set(1, 1, 10)
	b.Set(1, 1, 9)
	b.Set(2, 2, 1)
	d, err := a.MaxAbsDiff(b)
	if err != nil || d != 1 {
		t.Errorf("MaxAbsDiff = %v, %v", d, err)
	}
	other := NewGrid(geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 2, 2))
	if _, err := a.MaxAbsDiff(other); err == nil {
		t.Error("size mismatch not reported")
	}
}

func TestRamps(t *testing.T) {
	for _, tt := range []float64{-1, 0, 0.25, 0.5, 0.99, 1, 2, math.NaN()} {
		c := HeatRamp(tt)
		if c.A != 0xff {
			t.Errorf("HeatRamp(%v) alpha = %d", tt, c.A)
		}
		g := GrayRamp(tt)
		if g.R != g.G || g.G != g.B {
			t.Errorf("GrayRamp(%v) not gray", tt)
		}
	}
	// Low end blue-ish, high end red-ish.
	lo, hi := HeatRamp(0), HeatRamp(1)
	if lo.B < lo.R || hi.R < hi.B {
		t.Errorf("ramp endpoints wrong: %v, %v", lo, hi)
	}
}

func TestImageOrientation(t *testing.T) {
	g := NewGrid(spec())
	g.Set(0, 4, 100) // top-left in map coordinates (max y)
	img := g.Image(GrayRamp)
	if img.Bounds().Dx() != 10 || img.Bounds().Dy() != 5 {
		t.Fatalf("image size %v", img.Bounds())
	}
	// North-up: the high value (max iy) must be at image row 0.
	c := img.RGBAAt(0, 0)
	if c.R != 0 { // darkest
		t.Errorf("top-left pixel = %v, want black", c)
	}
}

func TestWritePNG(t *testing.T) {
	g := NewGrid(spec())
	g.Set(5, 2, 1)
	var buf bytes.Buffer
	if err := g.WritePNG(&buf, HeatRamp); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("decoding produced PNG: %v", err)
	}
	if img.Bounds().Dx() != 10 {
		t.Errorf("decoded width %d", img.Bounds().Dx())
	}
	path := filepath.Join(t.TempDir(), "out.png")
	if err := g.WritePNGFile(path, HeatRamp); err != nil {
		t.Fatal(err)
	}
}

// TestWritePNGMatchesStdlibEncode: the pooled encoder and the direct Pix
// fill change no byte. Each surface is written twice, so the second call
// runs on buffers the first one returned to the pool, and compared with
// png.Encode of an image built pixel by pixel through At / SetRGBA.
func TestWritePNGMatchesStdlibEncode(t *testing.T) {
	hotspot := NewGrid(geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 128, 96))
	for iy := 0; iy < hotspot.Spec.NY; iy++ {
		for ix := 0; ix < hotspot.Spec.NX; ix++ {
			dx, dy := float64(ix-40), float64(iy-70)
			hotspot.Set(ix, iy, math.Exp(-(dx*dx+dy*dy)/200))
		}
	}
	constant := NewGrid(spec())
	for i := range constant.Values {
		constant.Values[i] = 3
	}
	single := NewGrid(geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1, 1))
	single.Values[0] = 7
	translucent := func(v float64) color.RGBA { c := GrayRamp(v); c.A = 0x80; return c }

	cases := []struct {
		name string
		g    *Grid
		ramp ColorRamp
	}{
		{"hotspot", hotspot, HeatRamp},
		{"constant", constant, HeatRamp},
		{"1x1", single, HeatRamp},
		{"hotspot gray", hotspot, GrayRamp},
		{"hotspot translucent", hotspot, translucent},
	}
	for _, tc := range cases {
		lo, hi := tc.g.MinMax()
		ref := image.NewRGBA(image.Rect(0, 0, tc.g.Spec.NX, tc.g.Spec.NY))
		for iy := 0; iy < tc.g.Spec.NY; iy++ {
			for ix := 0; ix < tc.g.Spec.NX; ix++ {
				v := 0.0
				if hi > lo {
					v = (tc.g.At(ix, iy) - lo) / (hi - lo)
				}
				ref.SetRGBA(ix, tc.g.Spec.NY-1-iy, tc.ramp(v))
			}
		}
		var want bytes.Buffer
		if err := png.Encode(&want, ref); err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			var got bytes.Buffer
			if err := tc.g.WritePNG(&got, tc.ramp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s, pass %d: WritePNG wrote %d bytes that differ from png.Encode's %d",
					tc.name, pass, got.Len(), want.Len())
			}
		}
	}
}

func BenchmarkWritePNG(b *testing.B) {
	g := NewGrid(geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 128, 128))
	for i := range g.Values {
		g.Values[i] = math.Sin(float64(i%128)/9) * math.Cos(float64(i/128)/7)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := g.WritePNG(&buf, HeatRamp); err != nil {
			b.Fatal(err)
		}
	}
}

func TestASCII(t *testing.T) {
	g := NewGrid(spec())
	g.Set(9, 0, 5) // bottom-right
	art := g.ASCII()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[4][9] != '@' {
		t.Errorf("hotspot char = %q, want '@'", lines[4][9])
	}
	if lines[0][0] != ' ' {
		t.Errorf("cold char = %q, want space", lines[0][0])
	}
	// Constant surface must not panic or divide by zero.
	flat := NewGrid(spec())
	if s := flat.ASCII(); !strings.Contains(s, " ") {
		t.Error("flat ASCII unexpected")
	}
}
