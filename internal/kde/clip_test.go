package kde

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/obs"
	"geostat/internal/raster"
)

// This file tests the view clip of Evaluate differentially: every result is
// compared with a direct sum over ALL points, so a point the clip dropped
// wrongly shows as a missing term and one it kept wrongly cannot show at
// all (it contributes zero either way).

// clipFixture is a point set whose chunks meet a zoomed view in all three
// ways: two chunks sorted by x (thin slabs, wholly inside or outside a
// view), an unsorted tail chunk (straddles every view), and one isolated
// point far from the rest.
func clipFixture(offset float64) []geom.Point {
	pts := clusteredPoints(97, 2*dataset.ChunkSize+700)
	head := pts[:2*dataset.ChunkSize]
	sort.Slice(head, func(i, j int) bool { return head[i].X < head[j].X })
	pts = append(pts, geom.Point{X: 500, Y: 500})
	for i := range pts {
		pts[i].X += offset
		pts[i].Y += offset
	}
	return pts
}

var clipViews = []struct {
	name string
	box  geom.BBox
	// inView is the number of fixture points the clip must keep at the
	// fixture bandwidth, or -1 where the test only counts them itself.
	inView int
	// atOffset marks the views repeated with every coordinate — points and
	// view — moved by 5e5.
	atOffset bool
}{
	{"full", geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 80}, -1, false},
	{"quarter", geom.BBox{MinX: 0, MinY: 0, MaxX: 50, MaxY: 40}, -1, true},
	{"sixtyfourth", geom.BBox{MinX: 25, MinY: 30, MaxX: 37.5, MaxY: 40}, -1, false},
	{"straddles-data-edge", geom.BBox{MinX: -30, MinY: -25, MaxX: 20, MaxY: 15}, -1, false},
	{"disjoint", geom.BBox{MinX: 300, MinY: 300, MaxX: 350, MaxY: 340}, 0, false},
	{"one-point", geom.BBox{MinX: 490, MinY: 492, MaxX: 510, MaxY: 508}, 1, true},
}

const clipBandwidth = 7

func shiftBox(b geom.BBox, d float64) geom.BBox {
	return geom.BBox{MinX: b.MinX + d, MinY: b.MinY + d, MaxX: b.MaxX + d, MaxY: b.MaxY + d}
}

// window returns the w rectangle of g as a raster of its own.
func window(g *raster.Grid, w geom.GridWindow) *raster.Grid {
	sub := raster.NewGrid(g.Spec.SubGrid(w))
	for iy := 0; iy < w.NY; iy++ {
		for ix := 0; ix < w.NX; ix++ {
			sub.Set(ix, iy, g.At(w.X0+ix, w.Y0+iy))
		}
	}
	return sub
}

func TestViewClipDifferential(t *testing.T) {
	finite := []kernel.Type{
		kernel.Uniform, kernel.Triangular, kernel.Epanechnikov,
		kernel.Quartic, kernel.Triweight, kernel.Cosine,
	}
	type fixture struct {
		name   string
		offset float64
		pts    []geom.Point
		// The fixture's columns, as fresh columns (MakeColumns, clipped
		// or not, builds its own tree) and as a dataset snapshot's (a
		// view holding every point keeps the snapshot and its memoised
		// tree).
		sources map[string]dataset.Columns
	}
	var fixtures []fixture
	for _, off := range []float64{0, 5e5} {
		pts := clipFixture(off)
		fixtures = append(fixtures, fixture{"offset=" + strconv.FormatFloat(off, 'g', -1, 64), off, pts, map[string]dataset.Columns{
			"points": dataset.MakeColumns(pts), "snapshot": dataset.FromPoints(pts).Columns(),
		}})
	}
	sub := geom.GridWindow{X0: 3, Y0: 2, NX: 7, NY: 5}
	for _, fx := range fixtures {
		for _, view := range clipViews {
			if fx.offset != 0 && !view.atOffset {
				continue
			}
			for _, kt := range finite {
				for _, source := range []string{"points", "snapshot"} {
					opt := withApprox(Options{
						Kernel: kernel.MustNew(kt, clipBandwidth),
						Grid:   geom.NewPixelGrid(shiftBox(view.box, fx.offset), 16, 12),
					}, 5, matrixEps, matrixDelta)
					cs := fx.sources[source]
					raw := aosReference(fx.pts, opt)

					kept := inView(cs, &opt)
					want := 0
					sb := opt.Grid.SupportBox(geom.GridWindow{}, clipBandwidth)
					for _, p := range fx.pts {
						if sb.Contains(p) {
							want++
						}
					}
					if kept.N() != want || view.inView >= 0 && want != view.inView {
						t.Fatalf("%s/%s/%v: clip keeps %d points, support box holds %d (table says %d)",
							fx.name, view.name, kt, kept.N(), want, view.inView)
					}

					for ri := range methods {
						r := &methods[ri]
						for _, normalize := range []bool{false, true} {
							name := fmt.Sprintf("%s/%s/%v/%s/cols=%s/normalize=%v", fx.name, view.name, kt, r.name, source, normalize)
							opt.Normalize, opt.Workers, opt.Window = normalize, 1, geom.GridWindow{}
							ref, scale := raw, 1.0
							if normalize {
								// The mass is the dataset's, never the view's.
								scale = opt.Kernel.NormConst() / float64(len(fx.pts))
								ref = raster.NewGrid(raw.Spec)
								for i, v := range raw.Values {
									ref.Values[i] = v * scale
								}
							}
							got, err := Evaluate(cs, r.id, opt)
							if r.check(&opt) != nil {
								// Which cells a row refuses is the capability
								// matrix's test; here a refusal is just typed.
								var ue *UnsupportedError
								if !errors.As(err, &ue) {
									t.Fatalf("%s: err = %v, want *UnsupportedError", name, err)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							t.Run(name, func(t *testing.T) { assertMatches(t, r, got, ref, opt.Kernel, len(fx.pts), scale) })
							if view.inView == 0 {
								for i, v := range got.Values {
									if v != 0 {
										t.Fatalf("%s: pixel %d = %v in a view no point reaches", name, i, v)
									}
								}
							}
							for _, workers := range []int{2, 4} {
								opt.Workers = workers
								par, err := Evaluate(cs, r.id, opt)
								if err != nil {
									t.Fatalf("%s workers=%d: %v", name, workers, err)
								}
								assertBitIdentical(t, par, got, name+" workers="+strconv.Itoa(workers)+" vs 1")
							}
							if r.window {
								opt.Workers, opt.Window = 1, sub
								win, err := Evaluate(cs, r.id, opt)
								if err != nil {
									t.Fatalf("%s windowed: %v", name, err)
								}
								assertBitIdentical(t, win, window(got, sub), name+" windowed vs full")
							}
						}
					}
				}
			}
		}
	}
}

// TestViewClipAliases pins the two cases that must cost nothing: a view the
// whole dataset reaches, and a tile's halo subset under that tile's window.
func TestViewClipAliases(t *testing.T) {
	pts := clipFixture(0)
	d, err := dataset.New(pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Kernel: kernel.MustNew(kernel.Quartic, clipBandwidth), Grid: geom.NewPixelGrid(box, 40, 32)}
	tile := opt
	tile.Window = geom.GridWindow{X0: 8, Y0: 6, NX: 14, NY: 12}
	halo := d.FilterBox(tile.Grid.SupportBox(tile.Window, tile.Kernel.SupportRadius()))
	if halo.N() == 0 || halo.N() == d.N() {
		t.Fatalf("halo subset not selective: %d of %d points", halo.N(), d.N())
	}
	wide := opt
	wide.Grid = geom.NewPixelGrid(geom.BBox{MinX: -10, MinY: -10, MaxX: 600, MaxY: 600}, 40, 32)
	for _, tc := range []struct {
		name string
		cols dataset.Columns
		opt  Options
	}{
		{"whole dataset in view", d.Columns(), wide},
		{"halo subset under its window", halo.Columns(), tile},
	} {
		got := inView(tc.cols, &tc.opt)
		if got.N() != tc.cols.N() || &got.X[0] != &tc.cols.X[0] || &got.Y[0] != &tc.cols.Y[0] {
			t.Errorf("%s: clip copied (%d of %d points kept)", tc.name, got.N(), tc.cols.N())
		}
		if allocs := testing.AllocsPerRun(20, func() { inView(tc.cols, &tc.opt) }); allocs != 0 {
			t.Errorf("%s: clip allocates %v times", tc.name, allocs)
		}
	}
	// An infinite-support kernel reaches everywhere: never clipped.
	gauss := opt
	gauss.Kernel = kernel.MustNew(kernel.Gaussian, 1)
	gauss.Grid = geom.NewPixelGrid(clipViews[2].box, 16, 12)
	if got := inView(d.Columns(), &gauss); got.N() != d.N() {
		t.Errorf("gaussian clipped to %d of %d points", got.N(), d.N())
	}
}

// TestViewClipSpanAttrs: the trace says how many points the view kept
// (kde.index_build points_in_view) beside the dataset's n (kde.evaluate
// points), which keeps its meaning.
func TestViewClipSpanAttrs(t *testing.T) {
	pts := clipFixture(0)
	opt := Options{Kernel: kernel.MustNew(kernel.Quartic, clipBandwidth), Grid: geom.NewPixelGrid(clipViews[1].box, 16, 12)}
	want := inView(cols(pts), &opt).N()
	ctx, root := obs.NewTrace(context.Background(), "request")
	opt.Ctx = ctx
	if _, err := Evaluate(cols(pts), SweepLine, opt); err != nil {
		t.Fatal(err)
	}
	root.End()
	attrs := map[string]string{}
	for _, c := range root.Tree().Children {
		for _, a := range c.Attrs {
			attrs[c.Name+" "+a.Key] = a.Value
		}
	}
	if got := attrs["kde.index_build points_in_view"]; got != strconv.Itoa(want) || want == 0 || want == len(pts) {
		t.Errorf("kde.index_build points_in_view = %q, want %d (of %d)", got, want, len(pts))
	}
	if got := attrs["kde.evaluate points"]; got != strconv.Itoa(len(pts)) {
		t.Errorf("kde.evaluate points = %q, want the dataset's n = %d", got, len(pts))
	}
}
