package kde

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 80}

func testOpts(t kernel.Type, b float64) Options {
	return Options{
		Kernel: kernel.MustNew(t, b),
		Grid:   geom.NewPixelGrid(box, 40, 32),
	}
}

// cols adapts the tests' []geom.Point fixtures to the columnar entry point.
func cols(pts []geom.Point) dataset.Columns { return dataset.MakeColumns(pts) }

// withApprox returns opt with the approximate methods' parameters set.
func withApprox(opt Options, seed int64, eps, delta float64) Options {
	opt.Seed, opt.Epsilon, opt.Delta = seed, eps, delta
	return opt
}

func clusteredPoints(seed int64, n int) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	d := dataset.GaussianClusters(r, n, box, []dataset.Cluster{
		{Center: geom.Point{X: 30, Y: 40}, Sigma: 8, Weight: 2},
		{Center: geom.Point{X: 75, Y: 20}, Sigma: 5, Weight: 1},
	}, 0.2)
	return d.Points()
}

func TestOptionsValidation(t *testing.T) {
	pts := clusteredPoints(1, 10)
	if _, err := Evaluate(cols(pts), Naive, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	opt := testOpts(kernel.Quartic, 10)
	opt.Grid = geom.PixelGrid{}
	if _, err := Evaluate(cols(pts), Naive, opt); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestNaiveAgainstDirectFormula(t *testing.T) {
	// Two points, small grid: hand-verifiable.
	pts := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 50}}
	opt := Options{
		Kernel: kernel.MustNew(kernel.Gaussian, 20),
		Grid:   geom.NewPixelGrid(box, 10, 8),
	}
	out, err := Evaluate(cols(pts), Naive, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := opt.Grid.Center(3, 2)
	want := opt.Kernel.Eval2(q.Dist2(pts[0])) + opt.Kernel.Eval2(q.Dist2(pts[1]))
	if got := out.At(3, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("F = %v, want %v", got, want)
	}
}

func TestNaiveEmptyDataset(t *testing.T) {
	opt := testOpts(kernel.Quartic, 10)
	out, err := Evaluate(cols(nil), Naive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum() != 0 {
		t.Errorf("empty dataset sum = %v", out.Sum())
	}
}

func TestGridCutoffMatchesNaive(t *testing.T) {
	pts := clusteredPoints(2, 400)
	for _, kt := range []kernel.Type{kernel.Uniform, kernel.Triangular, kernel.Epanechnikov, kernel.Quartic, kernel.Triweight, kernel.Cosine} {
		for _, b := range []float64{3, 12, 60, 300} {
			opt := testOpts(kt, b)
			naive, err := Evaluate(cols(pts), Naive, opt)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Evaluate(cols(pts), GridCutoff, opt)
			if err != nil {
				t.Fatal(err)
			}
			d, err := fast.MaxAbsDiff(naive)
			if err != nil {
				t.Fatal(err)
			}
			if d > 1e-9 {
				t.Errorf("%v b=%v: GridCutoff differs from Naive by %v", kt, b, d)
			}
		}
	}
}

func TestGridCutoffRejectsInfiniteSupport(t *testing.T) {
	pts := clusteredPoints(3, 10)
	for _, kt := range []kernel.Type{kernel.Gaussian, kernel.Exponential} {
		if _, err := Evaluate(cols(pts), GridCutoff, testOpts(kt, 10)); err == nil {
			t.Errorf("%v accepted by GridCutoff", kt)
		}
	}
}

func TestSweepLineMatchesNaive(t *testing.T) {
	pts := clusteredPoints(4, 300)
	for _, kt := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triweight} {
		for _, b := range []float64{2.5, 11, 47} {
			opt := testOpts(kt, b)
			naive, err := Evaluate(cols(pts), Naive, opt)
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := Evaluate(cols(pts), SweepLine, opt)
			if err != nil {
				t.Fatal(err)
			}
			// The sweep's power-sum accumulation carries rounding at the
			// scale of the surface peak, not of each pixel, so compare
			// absolute error against the peak value.
			d, err := sweep.MaxAbsDiff(naive)
			if err != nil {
				t.Fatal(err)
			}
			_, peak := naive.MinMax()
			if d > 1e-9*(1+peak) {
				t.Errorf("%v b=%v: SweepLine abs diff %v (peak %v)", kt, b, d, peak)
			}
		}
	}
}

func TestSweepLineRejectsNonPolynomialKernels(t *testing.T) {
	pts := clusteredPoints(5, 10)
	for _, kt := range []kernel.Type{kernel.Triangular, kernel.Cosine, kernel.Gaussian, kernel.Exponential} {
		if _, err := Evaluate(cols(pts), SweepLine, testOpts(kt, 10)); err == nil {
			t.Errorf("%v accepted by SweepLine", kt)
		}
		if SweepSupported(kt) {
			t.Errorf("SweepSupported(%v) = true", kt)
		}
	}
	for _, kt := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triweight} {
		if !SweepSupported(kt) {
			t.Errorf("SweepSupported(%v) = false", kt)
		}
	}
}

func TestSweepLineEdgeCases(t *testing.T) {
	opt := testOpts(kernel.Quartic, 10)
	// Empty dataset.
	out, err := Evaluate(cols(nil), SweepLine, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum() != 0 {
		t.Errorf("empty sweep sum = %v", out.Sum())
	}
	// Single point off-grid (support partially outside the raster).
	out, err = Evaluate(cols([]geom.Point{{X: -5, Y: 40}}), SweepLine, opt)
	if err != nil {
		t.Fatal(err)
	}
	naive, _ := Evaluate(cols([]geom.Point{{X: -5, Y: 40}}), Naive, opt)
	if d, _ := out.MaxAbsDiff(naive); d > 1e-9 {
		t.Errorf("off-grid point diff %v", d)
	}
	// Duplicate points.
	dup := []geom.Point{{X: 50, Y: 40}, {X: 50, Y: 40}, {X: 50, Y: 40}}
	out, _ = Evaluate(cols(dup), SweepLine, opt)
	naive, _ = Evaluate(cols(dup), Naive, opt)
	if d, _ := out.MaxAbsDiff(naive); d > 1e-9 {
		t.Errorf("duplicate points diff %v", d)
	}
}

func TestBoundApproxValidation(t *testing.T) {
	pts := clusteredPoints(7, 10)
	if _, err := Evaluate(cols(pts), BoundApprox, withApprox(testOpts(kernel.Gaussian, 10), 0, 0, 0)); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Evaluate(cols(pts), BoundApprox, withApprox(testOpts(kernel.Gaussian, 10), 0, -1, 0)); err == nil {
		t.Error("negative eps accepted")
	}
	out, err := Evaluate(cols(nil), BoundApprox, withApprox(testOpts(kernel.Gaussian, 10), 0, 0.1, 0))
	if err != nil || out.Sum() != 0 {
		t.Errorf("empty dataset: %v, sum %v", err, out.Sum())
	}
}

func TestSampleBound(t *testing.T) {
	m, err := SampleBound(1000, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(math.Log(2*1000/0.01) / (2 * 0.05 * 0.05)))
	if m != want {
		t.Errorf("SampleBound = %d, want %d", m, want)
	}
	if _, err := SampleBound(10, 0, 0.1); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := SampleBound(10, 1.5, 0.1); err == nil {
		t.Error("eps>1 accepted")
	}
	if _, err := SampleBound(10, 0.1, 0); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := SampleBound(10, 0.1, 2); err == nil {
		t.Error("delta>1 accepted")
	}
}

// The sampling family's probabilistic guarantee: per-point mean error
// within ε·Kmax. With Kmax = K(0) = 1 for quartic, check
// |F̂ − F| ≤ ε·n (slightly inflated for the union-bound slack we already
// spent on the grid).
func TestSampledWithinBound(t *testing.T) {
	pts := clusteredPoints(8, 20000)
	opt := testOpts(kernel.Quartic, 20)
	const eps, delta = 0.05, 0.01
	exact, err := Evaluate(cols(pts), Auto, opt)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Evaluate(cols(pts), Sampled, withApprox(opt, 9, eps, delta))
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(pts))
	worst := 0.0
	for i := range exact.Values {
		diff := math.Abs(approx.Values[i]-exact.Values[i]) / n
		if diff > worst {
			worst = diff
		}
	}
	if worst > eps {
		t.Errorf("sampling error %v exceeds eps %v", worst, eps)
	}
}

func TestSampledSmallDatasetIsExact(t *testing.T) {
	pts := clusteredPoints(10, 50) // far below the sample bound
	opt := testOpts(kernel.Quartic, 15)
	exact, _ := Evaluate(cols(pts), Auto, opt)
	approx, err := Evaluate(cols(pts), Sampled, withApprox(opt, 1, 0.1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := approx.MaxAbsDiff(exact); d > 1e-9 {
		t.Errorf("small dataset should be exact, diff %v", d)
	}
}

// TestParallelMatchesSerial: rows are independent, so every method's
// raster is bit-identical at 1 and 4 workers, for a finite kernel and for
// the Gaussian (naive and bound-approx, the rows that take it).
func TestParallelMatchesSerial(t *testing.T) {
	pts := clusteredPoints(11, 300)
	for _, tc := range []struct {
		kt      kernel.Type
		methods []Method
	}{
		{kernel.Quartic, []Method{Naive, GridCutoff, SweepLine, BoundApprox}},
		{kernel.Gaussian, []Method{Naive, BoundApprox}},
	} {
		for _, m := range tc.methods {
			serial := withApprox(testOpts(tc.kt, 12), 0, 0.01, 0)
			parallel := serial
			parallel.Workers = 4
			a, err := Evaluate(cols(pts), m, serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Evaluate(cols(pts), m, parallel)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, b, a, tc.kt.String()+"/"+m.String()+": workers 4 vs 1")
		}
	}
	// Workers < 0 = GOMAXPROCS.
	opt := testOpts(kernel.Quartic, 12)
	opt.Workers = -1
	if _, err := Evaluate(cols(pts), Naive, opt); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeIntegratesToOne(t *testing.T) {
	// A point far from the border: the normalised surface should integrate
	// to ≈ 1 over the raster.
	pts := []geom.Point{{X: 50, Y: 40}}
	opt := Options{
		Kernel:    kernel.MustNew(kernel.Quartic, 10),
		Grid:      geom.NewPixelGrid(box, 200, 160),
		Normalize: true,
	}
	out, err := Evaluate(cols(pts), Auto, opt)
	if err != nil {
		t.Fatal(err)
	}
	cellArea := opt.Grid.CellW() * opt.Grid.CellH()
	integral := out.Sum() * cellArea
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("normalised integral = %v, want ≈1", integral)
	}
}

func TestExactAutoDispatch(t *testing.T) {
	pts := clusteredPoints(12, 200)
	// Exact must agree with Naive for every kernel type.
	for _, kt := range kernel.All() {
		opt := testOpts(kt, 14)
		naive, err := Evaluate(cols(pts), Naive, opt)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Evaluate(cols(pts), Auto, opt)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := ex.MaxAbsDiff(naive)
		_, peak := naive.MinMax()
		if d > 1e-9*(1+peak) {
			t.Errorf("%v: Exact abs diff %v", kt, d)
		}
	}
}

// Hotspot recovery: the argmax pixel of the KDV surface must fall inside
// the dominant planted cluster (the Figure 1 use case).
func TestHotspotRecovery(t *testing.T) {
	pts := clusteredPoints(13, 2000)
	opt := testOpts(kernel.Quartic, 8)
	out, err := Evaluate(cols(pts), Auto, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, iy, _ := out.ArgMax()
	hotspot := opt.Grid.Center(ix, iy)
	// The σ=5 cluster at (75,20) has the higher peak intensity
	// (weight/σ²: 1/25 > 2/64), so the argmax must land there.
	if hotspot.Dist(geom.Point{X: 75, Y: 20}) > 10 {
		t.Errorf("hotspot at %v, want near (75,20)", hotspot)
	}
}
