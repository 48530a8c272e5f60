package shard

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kde"
	"geostat/internal/kernel"
)

var planBox = geom.BBox{MinX: -50, MinY: 10, MaxX: 150, MaxY: 170}

func planData(t *testing.T, seed int64, n int) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	return dataset.GaussianClusters(r, n, planBox, []dataset.Cluster{
		{Center: geom.Point{X: 0, Y: 60}, Sigma: 15, Weight: 1},
		{Center: geom.Point{X: 100, Y: 120}, Sigma: 25, Weight: 2},
	}, 0.3)
}

var finiteKernels = []kernel.Type{
	kernel.Uniform, kernel.Triangular, kernel.Epanechnikov,
	kernel.Quartic, kernel.Triweight, kernel.Cosine,
}

// TestPlanTilesPartitionGrid: tile windows must cover every pixel of the
// grid exactly once, for arbitrary (tx, ty) cuts including ones that do
// not divide the grid evenly.
func TestPlanTilesPartitionGrid(t *testing.T) {
	d := planData(t, 3, 100)
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		nx, ny := 1+r.Intn(40), 1+r.Intn(40)
		tx, ty := 1+r.Intn(nx), 1+r.Intn(ny)
		req := KDVRequest{
			Kernel: kernel.MustNew(kernel.Quartic, 10),
			Grid:   geom.NewPixelGrid(planBox, nx, ny),
			TilesX: tx, TilesY: ty,
		}
		plan, err := PlanKDV(d, "p", req)
		if err != nil {
			t.Fatalf("trial %d (%dx%d grid, %dx%d tiles): %v", trial, nx, ny, tx, ty, err)
		}
		if len(plan.Tiles) != tx*ty {
			t.Fatalf("trial %d: %d tiles, want %d", trial, len(plan.Tiles), tx*ty)
		}
		covered := make([]int, nx*ny)
		for _, tile := range plan.Tiles {
			w := tile.Window
			if err := req.Grid.CheckWindow(w); err != nil {
				t.Fatalf("trial %d tile %d: invalid window %+v: %v", trial, tile.ID, w, err)
			}
			for iy := w.Y0; iy < w.Y0+w.NY; iy++ {
				for ix := w.X0; ix < w.X0+w.NX; ix++ {
					covered[iy*nx+ix]++
				}
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("trial %d: pixel %d covered %d times", trial, i, c)
			}
		}
	}
}

// TestHaloSubsetProperty is the planner's exactness property: for random
// finite-support kernels, bandwidths and tile cuts, evaluating each tile's
// window against only its halo-filtered subset must reproduce the
// full-dataset window Float64bits-for-Float64bits.
func TestHaloSubsetProperty(t *testing.T) {
	d := planData(t, 5, 400)
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		typ := finiteKernels[r.Intn(len(finiteKernels))]
		bw := 4 + 28*r.Float64()
		req := KDVRequest{
			Kernel: kernel.MustNew(typ, bw),
			Grid:   geom.NewPixelGrid(planBox, 20+r.Intn(21), 16+r.Intn(17)),
			TilesX: 1 + r.Intn(4), TilesY: 1 + r.Intn(4),
		}
		plan, err := PlanKDV(d, "p", req)
		if err != nil {
			t.Fatalf("trial %d (%v bw=%g): %v", trial, typ, bw, err)
		}
		opt := kde.Options{Kernel: req.Kernel, Grid: req.Grid}
		for _, tile := range plan.Tiles {
			wopt := opt
			wopt.Window = tile.Window
			full, err := kde.Evaluate(d.Columns(), kde.Naive, wopt)
			if err != nil {
				t.Fatalf("trial %d tile %d full: %v", trial, tile.ID, err)
			}
			if tile.Empty() {
				for i, v := range full.Values {
					if v != 0 {
						t.Fatalf("trial %d tile %d: planner marked empty but full window pixel %d = %g",
							trial, tile.ID, i, v)
					}
				}
				continue
			}
			sub := d.FilterBox(tile.HaloBox)
			got, err := kde.Evaluate(sub.Columns(), kde.Naive, wopt)
			if err != nil {
				t.Fatalf("trial %d tile %d subset: %v", trial, tile.ID, err)
			}
			for i := range full.Values {
				if math.Float64bits(full.Values[i]) != math.Float64bits(got.Values[i]) {
					t.Fatalf("trial %d (%v bw=%g) tile %d pixel %d: subset %x != full %x",
						trial, typ, bw, tile.ID, i,
						math.Float64bits(got.Values[i]), math.Float64bits(full.Values[i]))
				}
			}
		}
	}
}

// TestTileSubsetPassesWorkerClipAliased: planner and worker spell the halo
// rule through one helper, geom.PixelGrid.SupportBox, so the dataset a
// worker parses from a tile's CSV lies wholly inside the box its
// kde.Evaluate clips to — the clip hands the same columns back, copying and
// allocating nothing per tile request.
func TestTileSubsetPassesWorkerClipAliased(t *testing.T) {
	d := planData(t, 13, 3*dataset.ChunkSize)
	for _, typ := range finiteKernels {
		req := KDVRequest{
			Kernel: kernel.MustNew(typ, 11),
			Grid:   geom.NewPixelGrid(planBox, 37, 29),
			TilesX: 4, TilesY: 3,
		}
		plan, err := PlanKDV(d, "p", req)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range plan.Tiles {
			if tile.Empty() {
				continue
			}
			onWorker, err := dataset.ReadCSV(bytes.NewReader(tile.csv))
			if err != nil {
				t.Fatal(err)
			}
			cols := onWorker.Columns()
			if cols.N() == d.N() {
				t.Fatalf("%v tile %d: halo subset is the whole dataset, nothing to tell apart", typ, tile.ID)
			}
			clip := req.Grid.SupportBox(tile.Window, req.Kernel.SupportRadius())
			got := cols.FilterBox(clip)
			if got.N() != cols.N() || &got.X[0] != &cols.X[0] || &got.Y[0] != &cols.Y[0] {
				t.Fatalf("%v tile %d: worker-side clip copied the subset (%d of %d points kept)", typ, tile.ID, got.N(), cols.N())
			}
			if allocs := testing.AllocsPerRun(10, func() { cols.FilterBox(clip) }); allocs != 0 {
				t.Fatalf("%v tile %d: worker-side clip allocates %v times", typ, tile.ID, allocs)
			}
		}
	}
}

func TestPlanKDVValidation(t *testing.T) {
	d := planData(t, 3, 50)
	grid := geom.NewPixelGrid(planBox, 16, 12)
	good := KDVRequest{Kernel: kernel.MustNew(kernel.Quartic, 10), Grid: grid, TilesX: 2, TilesY: 2}

	cases := []struct {
		name string
		d    *dataset.Dataset
		ds   string
		mut  func(*KDVRequest)
	}{
		{name: "nil dataset", d: nil, ds: "p"},
		{name: "bad name", d: d, ds: "a/b"},
		{name: "empty name", d: d, ds: ""},
		{name: "gaussian kernel", d: d, ds: "p", mut: func(r *KDVRequest) {
			r.Kernel = kernel.MustNew(kernel.Gaussian, 10)
		}},
		{name: "exponential kernel", d: d, ds: "p", mut: func(r *KDVRequest) {
			r.Kernel = kernel.MustNew(kernel.Exponential, 10)
		}},
		{name: "zero-value kernel", d: d, ds: "p", mut: func(r *KDVRequest) {
			r.Kernel = kernel.Kernel{}
		}},
		{name: "zero grid", d: d, ds: "p", mut: func(r *KDVRequest) {
			r.Grid = geom.PixelGrid{}
		}},
		{name: "too many tiles", d: d, ds: "p", mut: func(r *KDVRequest) {
			r.TilesX = grid.NX + 1
		}},
		{name: "negative tiles", d: d, ds: "p", mut: func(r *KDVRequest) {
			r.TilesY = -1
		}},
	}
	for _, tc := range cases {
		req := good
		if tc.mut != nil {
			tc.mut(&req)
		}
		if _, err := PlanKDV(tc.d, tc.ds, req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	if _, err := PlanKDV(d, "p", good); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestPlanKFuncValidation(t *testing.T) {
	d := planData(t, 3, 50)
	good := KFuncRequest{Thresholds: []float64{5, 10, 15, 20, 25}, Sims: 4, Seed: 1}

	bad := []struct {
		name string
		mut  func(*KFuncRequest)
	}{
		{"no thresholds", func(r *KFuncRequest) { r.Thresholds = nil }},
		{"non-increasing", func(r *KFuncRequest) { r.Thresholds = []float64{5, 5, 10} }},
		{"non-positive", func(r *KFuncRequest) { r.Thresholds = []float64{0, 5} }},
		{"zero sims", func(r *KFuncRequest) { r.Sims = 0 }},
	}
	for _, tc := range bad {
		req := good
		tc.mut(&req)
		if _, err := PlanKFunc(d, "p", req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	plan, err := PlanKFunc(d, "p", good)
	if err != nil {
		t.Fatal(err)
	}
	// One request carries every band, in order, each spelled so the
	// worker parses back the identical float64.
	if got, want := plan.query().Get("thresholds"), "5,10,15,20,25"; got != want {
		t.Fatalf("thresholds=%q, want %q", got, want)
	}
}
