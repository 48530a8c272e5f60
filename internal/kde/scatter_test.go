package kde

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/raster"
)

// This file holds Naive's point-major row scatter (finite-support kernels)
// to the pixel-major gather it replaced, bit for bit: the unpruned
// columnarComputer, which folds every point into every pixel in point
// order, is the reference.

// finiteKernels are the kernel types the scatter serves.
var finiteKernels = []kernel.Type{
	kernel.Uniform, kernel.Triangular, kernel.Epanechnikov,
	kernel.Quartic, kernel.Triweight, kernel.Cosine,
}

// gather evaluates opt over c with the unpruned pixel-major loop, serially
// and over the unclipped columns.
func gather(t testing.TB, c dataset.Columns, opt Options) *raster.Grid {
	t.Helper()
	opt.Workers = 1
	g, err := run(&columnarComputer{cols: c, opt: &opt, eval: chunkEvalFor(opt.Kernel), x0: opt.Window.X0},
		&opt, c.N(), opt.scale(c.N()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// crop returns window w of a full-grid raster (all of it for the zero
// window). The gather computes each pixel from its parent-grid centre
// alone, so this is what it returns for w.
func crop(full *raster.Grid, w geom.GridWindow) *raster.Grid {
	if w.IsZero() {
		return full
	}
	out := raster.NewGrid(full.Spec.SubGrid(w))
	for iy := 0; iy < w.NY; iy++ {
		for ix := 0; ix < w.NX; ix++ {
			out.Set(ix, iy, full.At(w.X0+ix, w.Y0+iy))
		}
	}
	return out
}

// scatterCase is one grid and point set with the bandwidths to try on it,
// and the windows: edgeWindows(grid) when wins is nil.
type scatterCase struct {
	name string
	grid geom.PixelGrid
	pts  []geom.Point
	bs   []float64
	wins []geom.GridWindow
}

// scatterCases returns the hostile inputs: several chunks, UTM-sized
// offsets with duplicates, points on pixel centres and on the support
// boundary, a grid whose cell is below the ulp of its coordinates, and
// n = 0 / 1, each at bandwidths from far below a pixel to far above the
// extent.
func scatterCases() []scatterCase {
	r := rand.New(rand.NewSource(34))
	var cs []scatterCase

	// Chunks as vertical slabs (every row reaches every chunk) and as
	// horizontal ones (each row skips the chunks beyond b of its y line),
	// on the full grid and one interior window; the small cases below
	// take the edges.
	cgrid := geom.NewPixelGrid(box, 24, 20)
	cwins := []geom.GridWindow{{}, {X0: 5, Y0: 4, NX: 13, NY: 11}}
	cs = append(cs, scatterCase{"chunks-by-x", cgrid, multiChunkPoints(12, 9000), []float64{2, 6}, cwins})
	byY := clusteredPoints(13, 9000)
	sort.Slice(byY, func(i, j int) bool { return byY[i].Y < byY[j].Y })
	cs = append(cs, scatterCase{"chunks-by-y", cgrid, byY, []float64{2, 6}, cwins})

	for _, off := range []float64{5e5, 3.3e6} {
		ubox := geom.BBox{MinX: off, MinY: off, MaxX: off + 1000, MaxY: off + 800}
		var pts []geom.Point
		for len(pts) < 600 {
			p := geom.Point{X: off - 100 + r.Float64()*1200, Y: off - 100 + r.Float64()*1000}
			pts = append(pts, p)
			if r.Intn(5) == 0 {
				pts = append(pts, p, p) // duplicates
			}
		}
		cs = append(cs, scatterCase{fmt.Sprintf("utm%g", off), geom.NewPixelGrid(ubox, 13, 16),
			pts, []float64{0.01, 70, 5000}, nil})
	}

	// Unit cells with centres at k+0.5: points on centres, and at centre
	// + (±b, 0), (0, ±b), (3, 4)·b/5 — d² = b² exactly, where uniform's
	// closed support and the others' open one differ.
	ugrid := geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16}, 16, 16)
	var cpts []geom.Point
	for _, c := range [][2]float64{{0.5, 0.5}, {7.5, 8.5}, {15.5, 3.5}, {4.5, 15.5}} {
		cpts = append(cpts, geom.Point{X: c[0], Y: c[1]})
		for _, d := range [][2]float64{{5, 0}, {-5, 0}, {0, 5}, {0, -5}, {3, 4}, {-4, 3}, {2.5, 0}, {0, 2.5}} {
			cpts = append(cpts, geom.Point{X: c[0] + d[0], Y: c[1] + d[1]}, geom.Point{X: c[0] + d[0]/5, Y: c[1] + d[1]/5})
		}
	}
	cs = append(cs, scatterCase{"centres", ugrid, cpts, []float64{1, 2.5, 5}, nil})

	// 3.3e6 has an ulp of 2⁻³¹ ≈ 4.7e-10: 64 cells over 4 ulps, so
	// several pixels share one rounded centre.
	ulp := math.Nextafter(3.3e6, math.Inf(1)) - 3.3e6
	sbox := geom.BBox{MinX: 3.3e6, MinY: 3.3e6, MaxX: 3.3e6 + 4*ulp, MaxY: 3.3e6 + 4*ulp}
	var spts []geom.Point
	for i := 0; i < 200; i++ {
		spts = append(spts, geom.Point{X: 3.3e6 + float64(r.Intn(9)-2)*ulp, Y: 3.3e6 + float64(r.Intn(9)-2)*ulp})
	}
	cs = append(cs, scatterCase{"subulp", geom.NewPixelGrid(sbox, 64, 48), spts, []float64{ulp / 3, ulp, 2.5 * ulp}, nil})

	cs = append(cs,
		scatterCase{"n=0", geom.NewPixelGrid(box, 7, 5), nil, []float64{3}, nil},
		scatterCase{"n=1", geom.NewPixelGrid(box, 7, 5), []geom.Point{{X: 42, Y: 17}}, []float64{1e-6, 10, 1e6}, nil})
	return cs
}

// edgeWindows returns the zero window and windows on every edge and corner
// of g, one interior and one spanning the right half.
func edgeWindows(g geom.PixelGrid) []geom.GridWindow {
	nx, ny := g.NX, g.NY
	return []geom.GridWindow{
		{},
		{X0: 0, Y0: 0, NX: 1, NY: 1}, {X0: nx - 1, Y0: ny - 1, NX: 1, NY: 1},
		{X0: 0, Y0: 0, NX: nx, NY: 1}, {X0: 0, Y0: ny - 1, NX: nx, NY: 1},
		{X0: 0, Y0: 0, NX: 1, NY: ny}, {X0: nx - 1, Y0: 0, NX: 1, NY: ny},
		{X0: nx / 3, Y0: ny / 4, NX: max(nx/2, 1), NY: max(ny/2, 1)},
		{X0: nx / 2, Y0: 0, NX: nx - nx/2, NY: ny},
	}
}

// TestNaiveScatterMatchesGather runs Naive on every finite kernel through
// windows on every edge at 1, 2 and all workers, and compares each raster
// with the gather's bit for bit. (FuzzNaiveScatter runs the gather itself
// windowed.)
func TestNaiveScatterMatchesGather(t *testing.T) {
	for _, sc := range scatterCases() {
		t.Run(sc.name, func(t *testing.T) {
			wins := sc.wins
			if wins == nil {
				wins = edgeWindows(sc.grid)
			}
			c := cols(sc.pts)
			for _, kt := range finiteKernels {
				for _, b := range sc.bs {
					full := gather(t, c, Options{Kernel: kernel.MustNew(kt, b), Grid: sc.grid})
					for _, win := range wins {
						opt := Options{Kernel: kernel.MustNew(kt, b), Grid: sc.grid, Window: win}
						want := crop(full, win)
						for _, workers := range []int{1, 2, -1} {
							opt.Workers = workers
							got, err := Evaluate(c, Naive, opt)
							if err != nil {
								t.Fatal(err)
							}
							assertBitIdentical(t, got, want, fmt.Sprintf("%v/b=%g/window=%+v/workers=%d", kt, b, win, workers))
						}
					}
				}
			}
		})
	}
}

// TestNaiveScatterColumnRounding runs roundingCases through the scatter:
// the footprint must hold every pixel the gather adds a term to.
func TestNaiveScatterColumnRounding(t *testing.T) {
	for _, tc := range roundingCases {
		c := cols(tc.pts())
		for _, kt := range finiteKernels {
			opt := Options{Kernel: kernel.MustNew(kt, tc.b), Grid: tc.grid()}
			got, err := Evaluate(c, Naive, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, got, gather(t, c, opt), fmt.Sprintf("%v %s", kt, tc))
		}
	}
}

// TestHugeBandwidthMethodsAgree: at a bandwidth whose support spans more
// than 2⁶³ pixels or grid cells, every pixel and cell range must still
// clamp to the grid. Converting the unclamped float to int gave an empty
// range on amd64, so the sweep line and grid-cutoff returned 0 where naive
// returned the full sum.
func TestHugeBandwidthMethodsAgree(t *testing.T) {
	pts := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 70}, {X: 95, Y: 5}}
	grid := geom.NewPixelGrid(geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 8, 8)
	for _, b := range []float64{1e20, 1e30, 1e150} {
		for _, kt := range []kernel.Type{kernel.Quartic, kernel.Uniform} {
			opt := Options{Kernel: kernel.MustNew(kt, b), Grid: grid}
			want := aosReference(pts, opt)
			for _, m := range []Method{Auto, Naive, GridCutoff, SweepLine} {
				got, err := Evaluate(cols(pts), m, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got.Values {
					if w := want.Values[i]; math.Abs(v-w) > 1e-9*math.Abs(w) {
						t.Fatalf("%v b=%g %v: pixel %d = %v, want %v", kt, b, m, i, v, w)
					}
				}
			}
		}
	}
}

// FuzzNaiveScatter holds the scatter to the gather on fuzzer-chosen points,
// bandwidth, grid and window: the grid's origin, cell size and shape, a
// point cloud around it with duplicates, points on pixel centres and at
// centre ± b, and a window anywhere inside it.
func FuzzNaiveScatter(f *testing.F) {
	f.Add(int64(1), uint16(300), 4.0, 0.0, 0.0, 1.0, uint8(16), uint8(12), uint8(0), uint32(0))
	f.Add(int64(2), uint16(900), 0.3, 5e5, 3.3e6, 12.5, uint8(24), uint8(24), uint8(3), uint32(0x01020304))
	f.Add(int64(3), uint16(50), 1e3, -50.0, 20.0, 0.7, uint8(9), uint8(31), uint8(10), uint32(0x05000300))
	f.Add(int64(4), uint16(200), 1e-9, 3.3e6, 3.3e6, 1e-10, uint8(40), uint8(8), uint8(17), uint32(0x00ff00ff))
	f.Add(int64(5), uint16(0), 2.0, 0.0, 0.0, 1.0, uint8(1), uint8(1), uint8(5), uint32(0))
	f.Add(int64(6), uint16(120), 1e30, 0.0, 0.0, 12.5, uint8(8), uint8(8), uint8(2), uint32(0x02020202))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, b, minX, minY, cell float64, nx, ny, kind uint8, win uint32) {
		k, err := kernel.New(finiteKernels[int(kind)%len(finiteKernels)], b)
		if err != nil || nx == 0 || ny == 0 {
			return
		}
		gbox := geom.BBox{MinX: minX, MinY: minY, MaxX: minX + float64(nx)*cell, MaxY: minY + float64(ny)*cell}
		if !(gbox.Width() > 0 && gbox.Height() > 0) || math.IsInf(gbox.Width(), 0) || math.IsInf(gbox.Height(), 0) {
			return
		}
		grid := geom.NewPixelGrid(gbox, int(nx), int(ny))
		r := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, int(n)%1500)
		for i := range pts {
			switch r.Intn(5) {
			case 0: // on a pixel centre
				pts[i] = grid.Center(r.Intn(grid.NX), r.Intn(grid.NY))
			case 1: // a support radius from a pixel centre
				c := grid.Center(r.Intn(grid.NX), r.Intn(grid.NY))
				pts[i] = geom.Point{X: c.X + b*float64(r.Intn(3)-1), Y: c.Y + b*float64(r.Intn(3)-1)}
			case 2: // a duplicate
				if i > 0 {
					pts[i] = pts[i-1]
					continue
				}
				fallthrough
			default: // anywhere near the box
				pts[i] = geom.Point{
					X: minX + (r.Float64()*1.4-0.2)*gbox.Width(),
					Y: minY + (r.Float64()*1.4-0.2)*gbox.Height(),
				}
			}
		}
		w := geom.GridWindow{X0: int(win>>24) % grid.NX, Y0: int(win>>16&0xff) % grid.NY}
		w.NX = 1 + int(win>>8&0xff)%(grid.NX-w.X0)
		w.NY = 1 + int(win&0xff)%(grid.NY-w.Y0)
		if win == 0 {
			w = geom.GridWindow{}
		}
		c := cols(pts)
		opt := Options{Kernel: k, Grid: grid, Window: w, Workers: 1 + int(kind/16%2)}
		got, err := Evaluate(c, Naive, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := gather(t, c, opt)
		for i, v := range got.Values {
			if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%v b=%v grid=%+v window=%+v n=%d: pixel %d = %v (bits %x), gather %v (bits %x)",
					k.Type(), b, grid, w, len(pts), i, v, math.Float64bits(v), want.Values[i], math.Float64bits(want.Values[i]))
			}
		}
	})
}

// BenchmarkNaiveScatter times naive's row scatter for every finite kernel
// on one core: n = 100 000 clustered points, a 64² raster, b = 2 — the
// path shard tiles run, one one-point eval call per footprint pixel.
func BenchmarkNaiveScatter(b *testing.B) {
	c := cols(clusteredPoints(42, 100000))
	for _, kt := range finiteKernels {
		b.Run(kt.String(), func(b *testing.B) {
			opt := testOpts(kt, 2)
			opt.Grid = geom.NewPixelGrid(box, 64, 64)
			opt.Workers = 1
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(c, Naive, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
