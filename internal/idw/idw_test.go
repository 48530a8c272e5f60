package idw

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/raster"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func field(seed int64, n int) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	d := dataset.UniformCSR(r, n, box)
	return dataset.WithField(r, d, func(p geom.Point) float64 {
		return math.Sin(p.X/20) + p.Y/50
	}, 0.01)
}

// mk builds a valued dataset, failing the test on constructor error.
func mk(t *testing.T, pts []geom.Point, values []float64) *dataset.Dataset {
	t.Helper()
	d, err := dataset.New(pts, nil, values)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func opts() Options {
	return Options{Grid: geom.NewPixelGrid(box, 20, 20), Power: 2}
}

func TestValidation(t *testing.T) {
	d := field(1, 50)
	if _, err := Naive(d, Options{Grid: geom.NewPixelGrid(box, 4, 4)}); err == nil {
		t.Error("zero power accepted")
	}
	if _, err := Naive(d, Options{Power: 2}); err == nil {
		t.Error("zero grid accepted")
	}
	noVals := dataset.FromPoints(d.Points())
	if _, err := Naive(noVals, opts()); err == nil {
		t.Error("valueless dataset accepted")
	}
	if _, err := Naive(mk(t, nil, []float64{}), opts()); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := KNN(d, opts(), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Radius(d, opts(), 0); err == nil {
		t.Error("radius=0 accepted")
	}
}

func TestSingleSampleConstantSurface(t *testing.T) {
	d := mk(t, []geom.Point{{X: 50, Y: 50}}, []float64{7.5})
	out, err := Naive(d, opts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Values {
		if math.Abs(v-7.5) > 1e-12 {
			t.Fatalf("value %v, want 7.5 everywhere", v)
		}
	}
}

func TestWeightedAverageProperties(t *testing.T) {
	d := field(2, 200)
	out, err := Naive(d, opts())
	if err != nil {
		t.Fatal(err)
	}
	// IDW is a convex combination: every pixel within [min z, max z].
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, z := range d.Values() {
		lo = math.Min(lo, z)
		hi = math.Max(hi, z)
	}
	for i, v := range out.Values {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("pixel %d = %v outside sample range [%v, %v]", i, v, lo, hi)
		}
	}
}

func TestExactAtSampleLocations(t *testing.T) {
	// Place a sample exactly at a pixel center.
	g := geom.NewPixelGrid(box, 20, 20)
	q := g.Center(7, 3)
	d := mk(t, []geom.Point{q, {X: 10, Y: 90}}, []float64{42, -1})
	o := opts()
	for name, f := range map[string]func() (interface{ At(int, int) float64 }, error){
		"naive":  func() (interface{ At(int, int) float64 }, error) { return Naive(d, o) },
		"knn":    func() (interface{ At(int, int) float64 }, error) { return KNN(d, o, 2) },
		"radius": func() (interface{ At(int, int) float64 }, error) { return Radius(d, o, 30) },
	} {
		out, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := out.At(7, 3); got != 42 {
			t.Errorf("%s: value at sample pixel = %v, want 42", name, got)
		}
	}
}

func TestKNNWithLargeKMatchesNaive(t *testing.T) {
	d := field(3, 150)
	o := opts()
	naive, err := Naive(d, o)
	if err != nil {
		t.Fatal(err)
	}
	knn, err := KNN(d, o, d.N()) // k = n: identical to naive
	if err != nil {
		t.Fatal(err)
	}
	diff, err := knn.MaxAbsDiff(naive)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-9 {
		t.Errorf("KNN(k=n) differs from Naive by %v", diff)
	}
}

func TestRadiusCoversAllMatchesNaive(t *testing.T) {
	d := field(4, 150)
	o := opts()
	naive, _ := Naive(d, o)
	rad, err := Radius(d, o, 1000) // radius covers everything
	if err != nil {
		t.Fatal(err)
	}
	diff, _ := rad.MaxAbsDiff(naive)
	if diff > 1e-9 {
		t.Errorf("Radius(∞) differs from Naive by %v", diff)
	}
}

func TestRadiusFallbackNearest(t *testing.T) {
	// Two distant samples, tiny radius: most pixels have no in-range sample
	// and must take their nearest sample's value.
	d := mk(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}}, []float64{1, 9})
	out, err := Radius(d, opts(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.At(0, 0); got != 1 {
		t.Errorf("bottom-left = %v, want 1", got)
	}
	if got := out.At(19, 19); got != 9 {
		t.Errorf("top-right = %v, want 9", got)
	}
	for _, v := range out.Values {
		if v != 1 && v != 9 {
			t.Fatalf("fallback produced interpolated value %v", v)
		}
	}
}

func TestFieldRecovery(t *testing.T) {
	// Dense noiseless samples of a smooth field: interpolation error small.
	r := rand.New(rand.NewSource(5))
	d := dataset.UniformCSR(r, 3000, box)
	f := func(p geom.Point) float64 { return p.X/10 + math.Cos(p.Y/15) }
	dataset.WithField(r, d, f, 0)
	o := opts()
	out, err := KNN(d, o, 12)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for iy := 0; iy < o.Grid.NY; iy++ {
		for ix := 0; ix < o.Grid.NX; ix++ {
			want := f(o.Grid.Center(ix, iy))
			if e := math.Abs(out.At(ix, iy) - want); e > worst {
				worst = e
			}
		}
	}
	if worst > 0.5 {
		t.Errorf("worst interpolation error %v", worst)
	}
}

func TestOddPower(t *testing.T) {
	d := field(6, 100)
	o := opts()
	o.Power = 3
	if _, err := Naive(d, o); err != nil {
		t.Fatal(err)
	}
	if w := weight(4, 3); math.Abs(w-1.0/8) > 1e-12 {
		t.Errorf("weight(4,3) = %v, want 1/8", w)
	}
	if w := weight(4, 4); w != 1.0/16 {
		t.Errorf("weight(4,4) = %v, want 1/16", w)
	}
	if w := weight(4, 2); w != 0.25 {
		t.Errorf("weight(4,2) = %v, want 0.25", w)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d := field(7, 300)
	o := opts()
	serial, _ := Naive(d, o)
	o.Workers = 4
	par, err := Naive(d, o)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := serial.MaxAbsDiff(par); diff > 0 {
		t.Errorf("parallel differs by %v", diff)
	}
	o.Workers = -1
	if _, err := KNN(d, o, 5); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledCtxStopsEveryMethod: each IDW method run under an already
// cancelled opt.Ctx returns (nil, context.Canceled) instead of a raster.
func TestCancelledCtxStopsEveryMethod(t *testing.T) {
	d := field(1, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := opts()
	opt.Ctx = ctx
	for name, run := range map[string]func() (*raster.Grid, error){
		"naive":  func() (*raster.Grid, error) { return Naive(d, opt) },
		"knn":    func() (*raster.Grid, error) { return KNN(d, opt, 8) },
		"radius": func() (*raster.Grid, error) { return Radius(d, opt, 20) },
	} {
		if g, err := run(); g != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got (%v, %v), want (nil, context.Canceled)", name, g, err)
		}
	}
}
