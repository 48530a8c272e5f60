package stkdv

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

// mkst builds a timestamped dataset, failing the test on constructor error.
func mkst(t *testing.T, pts []geom.Point, times []float64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.New(pts, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func twoWave(seed int64, n int) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	return dataset.SpatioTemporalOutbreak(r, n, box, 0, 60, []dataset.Wave{
		{Center: geom.Point{X: 25, Y: 25}, Sigma: 5, TimeMean: 15, TimeSigma: 4, Weight: 1},
		{Center: geom.Point{X: 75, Y: 75}, Sigma: 5, TimeMean: 45, TimeSigma: 4, Weight: 1},
	}, 0.1)
}

func opts(st, tt kernel.Type, bs, bt float64, slices []float64) Options {
	return Options{
		SpaceKernel: kernel.MustNew(st, bs),
		TimeKernel:  kernel.MustNew(tt, bt),
		Grid:        geom.NewPixelGrid(box, 25, 25),
		Times:       slices,
	}
}

func TestValidation(t *testing.T) {
	d := twoWave(1, 50)
	if _, err := Naive(d, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	o := opts(kernel.Quartic, kernel.Epanechnikov, 10, 5, []float64{10, 5})
	if _, err := Naive(d, o); err == nil {
		t.Error("decreasing times accepted")
	}
	o = opts(kernel.Quartic, kernel.Epanechnikov, 10, 5, nil)
	if _, err := Naive(d, o); err == nil {
		t.Error("empty times accepted")
	}
	o = opts(kernel.Quartic, kernel.Epanechnikov, 10, 5, []float64{10, 20})
	spatialOnly := dataset.FromPoints(d.Points())
	if _, err := Naive(spatialOnly, o); err == nil {
		t.Error("dataset without times accepted")
	}
	if _, err := Shared(spatialOnly, o); err == nil {
		t.Error("Shared accepted dataset without times")
	}
	bad := opts(kernel.Gaussian, kernel.Epanechnikov, 10, 5, []float64{10})
	if _, err := Shared(d, bad); err == nil {
		t.Error("Shared accepted infinite-support spatial kernel")
	}
	bad = opts(kernel.Quartic, kernel.Triangular, 10, 5, []float64{10})
	if _, err := Shared(d, bad); err == nil {
		t.Error("Shared accepted non-polynomial temporal kernel")
	}
}

func TestNaiveHandValue(t *testing.T) {
	d := mkst(t, []geom.Point{{X: 50, Y: 50}}, []float64{10})
	o := opts(kernel.Epanechnikov, kernel.Epanechnikov, 20, 8, []float64{10, 14, 30})
	cube, err := Naive(d, o)
	if err != nil {
		t.Fatal(err)
	}
	q := o.Grid.Center(12, 12) // (50, 50)
	ds2 := q.Dist2(geom.Point{X: 50, Y: 50})
	// Slice 0: dt=0 → Kt=1.
	want := (1 - ds2/400.0) * 1
	if got := cube.Slice(0).At(12, 12); math.Abs(got-want) > 1e-12 {
		t.Errorf("slice 0 = %v, want %v", got, want)
	}
	// Slice 1: dt=4 → Kt = 1-16/64 = 0.75.
	want = (1 - ds2/400.0) * 0.75
	if got := cube.Slice(1).At(12, 12); math.Abs(got-want) > 1e-12 {
		t.Errorf("slice 1 = %v, want %v", got, want)
	}
	// Slice 2: dt=20 > bt → 0.
	if got := cube.Slice(2).At(12, 12); got != 0 {
		t.Errorf("slice 2 = %v, want 0", got)
	}
}

func TestSharedMatchesNaive(t *testing.T) {
	d := twoWave(2, 250)
	slices := []float64{5, 15, 25, 35, 45, 55}
	for _, st := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triangular, kernel.Cosine} {
		for _, tt := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic} {
			o := opts(st, tt, 12, 9, slices)
			naive, err := Naive(d, o)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := Shared(d, o)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := naive.MaxAbsDiff(shared)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-9 {
				t.Errorf("space=%v time=%v: Shared differs from Naive by %v", st, tt, diff)
			}
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d := twoWave(3, 200)
	slices := []float64{10, 20, 30, 40, 50}
	o := opts(kernel.Quartic, kernel.Epanechnikov, 10, 8, slices)
	serialN, err := Naive(d, o)
	if err != nil {
		t.Fatal(err)
	}
	serialS, err := Shared(d, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 4
	parN, err := Naive(d, o)
	if err != nil {
		t.Fatal(err)
	}
	parS, err := Shared(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := serialN.MaxAbsDiff(parN); diff > 1e-12 {
		t.Errorf("parallel Naive differs by %v", diff)
	}
	if diff, _ := serialS.MaxAbsDiff(parS); diff > 1e-12 {
		t.Errorf("parallel Shared differs by %v", diff)
	}
}

// Figure 4's phenomenon: the hotspot pixel moves from wave 1's center to
// wave 2's center between early and late slices.
func TestHotspotMovesAcrossWaves(t *testing.T) {
	d := twoWave(4, 2000)
	o := opts(kernel.Quartic, kernel.Epanechnikov, 8, 6, []float64{15, 45})
	cube, err := Shared(d, o)
	if err != nil {
		t.Fatal(err)
	}
	ix, iy, _ := cube.Slice(0).ArgMax()
	early := o.Grid.Center(ix, iy)
	ix, iy, _ = cube.Slice(1).ArgMax()
	late := o.Grid.Center(ix, iy)
	if early.Dist(geom.Point{X: 25, Y: 25}) > 12 {
		t.Errorf("early hotspot %v, want near (25,25)", early)
	}
	if late.Dist(geom.Point{X: 75, Y: 75}) > 12 {
		t.Errorf("late hotspot %v, want near (75,75)", late)
	}
}

func TestEmptyDataset(t *testing.T) {
	empty := mkst(t, nil, []float64{})
	o := opts(kernel.Quartic, kernel.Epanechnikov, 10, 5, []float64{1, 2})
	for _, f := range []func(*dataset.Dataset, Options) (*Cube, error){Naive, Shared} {
		cube, err := f(empty, o)
		if err != nil {
			t.Fatal(err)
		}
		for si := range cube.Values {
			for _, v := range cube.Values[si] {
				if v != 0 {
					t.Fatal("empty dataset produced density")
				}
			}
		}
	}
}

func TestCubeMaxAbsDiffErrors(t *testing.T) {
	o := opts(kernel.Quartic, kernel.Epanechnikov, 10, 5, []float64{1})
	o2 := opts(kernel.Quartic, kernel.Epanechnikov, 10, 5, []float64{1, 2})
	d := twoWave(5, 20)
	a, _ := Naive(d, o)
	b, _ := Naive(d, o2)
	if _, err := a.MaxAbsDiff(b); err == nil {
		t.Error("mismatched cube shapes accepted")
	}
}

// Property (testing/quick style sweep): Shared equals Naive across random
// slice layouts, bandwidths, and event batches with off-grid points.
func TestSharedMatchesNaiveFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := r.Intn(120)
		pts := make([]geom.Point, n)
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			pts[i] = geom.Point{X: r.Float64()*140 - 20, Y: r.Float64()*140 - 20}
			times[i] = r.Float64()*80 - 10
		}
		d := mkst(t, pts, times)
		nSlices := 1 + r.Intn(6)
		slices := make([]float64, nSlices)
		t0 := r.Float64() * 20
		for i := range slices {
			t0 += 0.5 + r.Float64()*15
			slices[i] = t0
		}
		st := []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic}[r.Intn(3)]
		tt := []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic}[r.Intn(3)]
		o := Options{
			SpaceKernel: kernel.MustNew(st, 1+r.Float64()*25),
			TimeKernel:  kernel.MustNew(tt, 1+r.Float64()*20),
			Grid:        geom.NewPixelGrid(box, 2+r.Intn(20), 2+r.Intn(20)),
			Times:       slices,
		}
		naive, err := Naive(d, o)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Shared(d, o)
		if err != nil {
			t.Fatal(err)
		}
		if diff, _ := naive.MaxAbsDiff(shared); diff > 1e-9 {
			t.Fatalf("trial %d: diff %v (space=%v time=%v slices=%v)", trial, diff, st, tt, slices)
		}
	}
}

// TestSharedRoundingCases runs kde's column-rounding inputs (points whose
// passing pixels a float column range misses) through Shared, with one
// time slice at the event's time: its footprint must hold every pixel
// Naive adds a term to, however small (the bar is 1e-9 of the peak).
func TestSharedRoundingCases(t *testing.T) {
	for _, tc := range []struct {
		minX, maxX float64
		nx         int
		x, b       float64
	}{
		{3.3e6, 3.3000063e6, 9, 3.3000050858565005e6, 1.235856500678855},
		{3.3e6, 3.3000002e6, 2, 3.2999995588938706e6, 0.49110612946086346},
		{3.3e6, 3.300000000000001e6, 65, 3.3000000000000014e6, 9.313225746154785e-10},
		{3.3e6, 3.300000000000003e6, 45, 3.3e6, 2.3283064365386963e-10},
	} {
		d := mkst(t, []geom.Point{{X: tc.x, Y: 0.5}}, []float64{10})
		for _, st := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic} {
			o := Options{
				SpaceKernel: kernel.MustNew(st, tc.b),
				TimeKernel:  kernel.MustNew(kernel.Uniform, 1),
				Grid:        geom.NewPixelGrid(geom.BBox{MinX: tc.minX, MinY: 0, MaxX: tc.maxX, MaxY: 1}, tc.nx, 1),
				Times:       []float64{10},
			}
			naive, err := Naive(d, o)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := Shared(d, o)
			if err != nil {
				t.Fatal(err)
			}
			_, peak := naive.Slice(0).MinMax()
			if diff, err := naive.MaxAbsDiff(shared); err != nil || diff > 1e-9*peak {
				t.Errorf("space=%v x=%v b=%v: Shared differs from Naive by %v, peak %v (%v)", st, tc.x, tc.b, diff, peak, err)
			}
		}
	}
}
