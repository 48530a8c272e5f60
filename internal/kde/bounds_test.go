package kde

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/obs"
)

// guaranteeCell is one input of the BoundApprox guarantee trial: points, the
// raster over them and a bandwidth.
type guaranteeCell struct {
	name string
	pts  []geom.Point
	grid geom.PixelGrid
	b    float64
}

// guaranteeCells are plain clustered data and the inputs where a relative
// (1±ε) bound is hardest to keep: coordinates at UTM scale (uncentred moments would cancel), every
// point coincident (zero-width node boxes), a bandwidth far beyond the
// extent (every bracket nearly closed) and far below the pixel spacing
// (F is a few isolated terms, most pixels 0), and pixels so far from the
// data that the Gaussian F is tiny, subnormal, or underflows to 0.
func guaranteeCells() []guaranteeCell {
	base := clusteredPoints(31, 600)
	utm := make([]geom.Point, len(base))
	for i, p := range base {
		utm[i] = geom.Point{X: p.X + 5e5, Y: p.Y + 4e6}
	}
	utmBox := geom.BBox{MinX: box.MinX + 5e5, MinY: box.MinY + 4e6, MaxX: box.MaxX + 5e5, MaxY: box.MaxY + 4e6}
	coincident := make([]geom.Point, 300)
	for i := range coincident {
		coincident[i] = geom.Point{X: 41.3, Y: 37.9}
	}
	r := rand.New(rand.NewSource(32))
	near := make([]geom.Point, 400) // a 10×10 patch; the raster sits 236–530 away
	for i := range near {
		near[i] = geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
	}
	grid := geom.NewPixelGrid(box, 40, 32) // 2.5 × 2.5 pixels
	return []guaranteeCell{
		{"clustered", base, grid, 15},
		{"utm", utm, geom.NewPixelGrid(utmBox, 40, 32), 15},
		{"coincident", coincident, grid, 15},
		{"b>>extent", base, grid, 1e4},
		{"b<<pixel", base, grid, 0.05},
		// Gaussian d²/b² runs from 387 (F ≈ 1e-168) past 708 (subnormal) and
		// 745 (0).
		{"far", near, geom.NewPixelGrid(geom.BBox{MinX: 200, MinY: 150, MaxX: 430, MaxY: 330}, 32, 24), 12},
	}
}

// TestBoundApproxGuarantee holds Equation 6, (1−ε)·F ≤ R ≤ (1+ε)·F, on
// every pixel of every guarantee cell for all eight kernels (uniform on the
// plain bracket, the rest on KARL's), against Naive. A pixel where F is 0
// must come out exactly 0. Each cell logs its worst |R−F| ÷ ε·F.
func TestBoundApproxGuarantee(t *testing.T) {
	for _, cell := range guaranteeCells() {
		c := cols(cell.pts)
		for _, kt := range kernel.All() {
			opt := Options{Kernel: kernel.MustNew(kt, cell.b), Grid: cell.grid}
			naive, err := Evaluate(c, Naive, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{0.5, 0.05, 0.01} {
				approx, err := Evaluate(c, BoundApprox, withApprox(opt, 0, eps, 0))
				if err != nil {
					t.Fatal(err)
				}
				worst, zeros, tiny, subnormal := 0.0, 0, 0, 0
				for i, got := range approx.Values {
					f := naive.Values[i]
					if f == 0 {
						zeros++
						if got != 0 {
							t.Errorf("%s/%v eps=%v pixel %d: R=%v where F=0", cell.name, kt, eps, i, got)
						}
						continue
					}
					if f < 1e-100 {
						tiny++
					}
					if f < 0x1p-1022 {
						subnormal++
					}
					ratio := math.Abs(got-f) / (eps * f)
					worst = math.Max(worst, ratio)
					if ratio > 1+1e-9 {
						t.Errorf("%s/%v eps=%v pixel %d: R=%v outside (1±ε)F, F=%v (ratio %.4g)", cell.name, kt, eps, i, got, f, ratio)
					}
				}
				t.Logf("%-10s %-12v eps=%-4v worst |R−F|/εF = %.4f  (pixels with F=0: %d, F<1e-100: %d, subnormal F: %d)", cell.name, kt, eps, worst, zeros, tiny, subnormal)
			}
		}
	}
}

// TestBoundApproxSnapshotTreeMatchesFresh: a dataset's columns run on the
// snapshot's memoised kd-tree, MakeColumns over the same points on a tree
// built for the call; both trees are the same, so the rasters are
// bit-identical, serial and parallel.
func TestBoundApproxSnapshotTreeMatchesFresh(t *testing.T) {
	d := dataset.FromPoints(clusteredPoints(33, 5000))
	for _, kt := range []kernel.Type{kernel.Gaussian, kernel.Exponential, kernel.Quartic} {
		for _, workers := range []int{1, 4} {
			opt := withApprox(testOpts(kt, 6), 0, 0.05, 0)
			opt.Workers = workers
			snap, err := Evaluate(d.Columns(), BoundApprox, opt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Evaluate(cols(d.Points()), BoundApprox, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, snap, fresh, kt.String()+": snapshot tree vs fresh tree")
		}
	}
}

// TestBoundApproxTraceCounters: kde.index_build says whether the tree came
// from the snapshot (tree=miss on the first call, hit after) and
// kde.evaluate carries the node expansions.
func TestBoundApproxTraceCounters(t *testing.T) {
	d := dataset.FromPoints(clusteredPoints(34, 2000))
	for _, want := range []string{"miss", "hit"} {
		ctx, root := obs.NewTrace(context.Background(), "test")
		opt := withApprox(testOpts(kernel.Gaussian, 6), 0, 0.05, 0)
		opt.Ctx = ctx
		if _, err := Evaluate(d.Columns(), BoundApprox, opt); err != nil {
			t.Fatal(err)
		}
		root.End()
		attrs := map[string]string{}
		for _, sp := range root.Tree().Children {
			for _, a := range sp.Attrs {
				attrs[sp.Name+"."+a.Key] = a.Value
			}
		}
		if got := attrs["kde.index_build.tree"]; got != want {
			t.Errorf("kde.index_build tree=%q, want %q", got, want)
		}
		if got := attrs["kde.evaluate.refinements"]; got == "" || got == "0" {
			t.Errorf("kde.evaluate refinements=%q, want a positive count", got)
		}
	}
}
