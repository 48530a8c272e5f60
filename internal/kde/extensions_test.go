package kde

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
)

// ---- MultiBandwidth (SAFE-style bandwidth sharing) ----

func TestMultiBandwidthMatchesPerBandwidthExact(t *testing.T) {
	pts := clusteredPoints(20, 400)
	grid := geom.NewPixelGrid(box, 24, 20)
	bandwidths := []float64{2, 5, 9, 16, 30}
	for _, kt := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triweight} {
		surfaces, err := MultiBandwidth(cols(pts), grid, kt, bandwidths, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(surfaces) != len(bandwidths) {
			t.Fatalf("%v: %d surfaces", kt, len(surfaces))
		}
		for bi, b := range bandwidths {
			want, err := Evaluate(cols(pts), Auto, Options{Kernel: kernel.MustNew(kt, b), Grid: grid})
			if err != nil {
				t.Fatal(err)
			}
			d, _ := surfaces[bi].MaxAbsDiff(want)
			_, peak := want.MinMax()
			if d > 1e-9*(1+peak) {
				t.Errorf("%v b=%v: multi-bandwidth differs by %v", kt, b, d)
			}
		}
	}
}

func TestMultiBandwidthValidation(t *testing.T) {
	pts := clusteredPoints(21, 20)
	grid := geom.NewPixelGrid(box, 8, 8)
	if _, err := MultiBandwidth(cols(pts), grid, kernel.Gaussian, []float64{1}, 0); err == nil {
		t.Error("Gaussian accepted")
	}
	if _, err := MultiBandwidth(cols(pts), grid, kernel.Quartic, nil, 0); err == nil {
		t.Error("empty bandwidths accepted")
	}
	if _, err := MultiBandwidth(cols(pts), grid, kernel.Quartic, []float64{5, 5}, 0); err == nil {
		t.Error("non-increasing bandwidths accepted")
	}
	if _, err := MultiBandwidth(cols(pts), grid, kernel.Quartic, []float64{-1, 2}, 0); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := MultiBandwidth(cols(pts), geom.PixelGrid{}, kernel.Quartic, []float64{1}, 0); err == nil {
		t.Error("zero grid accepted")
	}
}

func TestMultiBandwidthParallelMatchesSerial(t *testing.T) {
	pts := clusteredPoints(22, 300)
	grid := geom.NewPixelGrid(box, 20, 16)
	bw := []float64{3, 8, 15}
	serial, err := MultiBandwidth(cols(pts), grid, kernel.Quartic, bw, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MultiBandwidth(cols(pts), grid, kernel.Quartic, bw, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bw {
		if d, _ := serial[i].MaxAbsDiff(par[i]); d > 1e-12 {
			t.Errorf("b=%v: parallel differs by %v", bw[i], d)
		}
	}
}

// ---- Adaptive KDV ----

func TestAdaptiveUniformBandwidthMatchesFixed(t *testing.T) {
	// With every per-point bandwidth equal, adaptive == fixed KDV.
	pts := clusteredPoints(23, 300)
	grid := geom.NewPixelGrid(box, 24, 20)
	const b = 9.0
	bw := make([]float64, len(pts))
	for i := range bw {
		bw[i] = b
	}
	adaptive, err := Adaptive(cols(pts), bw, kernel.Quartic, grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Evaluate(cols(pts), Auto, Options{Kernel: kernel.MustNew(kernel.Quartic, b), Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := adaptive.MaxAbsDiff(fixed)
	_, peak := fixed.MinMax()
	if d > 1e-9*(1+peak) {
		t.Errorf("adaptive(const b) differs from fixed by %v", d)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	pts := clusteredPoints(24, 10)
	grid := geom.NewPixelGrid(box, 8, 8)
	if _, err := Adaptive(cols(pts), []float64{1}, kernel.Quartic, grid, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	bw := make([]float64, len(pts))
	for i := range bw {
		bw[i] = 1
	}
	if _, err := Adaptive(cols(pts), bw, kernel.Gaussian, grid, 0); err == nil {
		t.Error("Gaussian accepted")
	}
	bw[3] = -1
	if _, err := Adaptive(cols(pts), bw, kernel.Quartic, grid, 0); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := Adaptive(cols(pts), bw[:0], kernel.Quartic, geom.PixelGrid{}, 0); err == nil {
		t.Error("zero grid accepted")
	}
}

// TestAdaptiveWorkerCountBitIdentity pins bit-identity across worker
// counts on the one KDV variant that scatters instead of gathering: every
// pixel is Float64bits-equal to the workers = 1 raster, on every
// repetition. That holds only while each pixel adds its points in index
// order; summing per-worker partial rasters — whose contents depend on
// which worker claimed which chunk of points — fails it within a few
// repetitions.
func TestAdaptiveWorkerCountBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		nx, ny int
	}{
		{"more points than rows", 3000, 30, 24},
		{"more rows than points", 40, 16, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := clusteredPoints(25, tc.n)
			grid := geom.NewPixelGrid(box, tc.nx, tc.ny)
			bw, err := AdaptiveBandwidths(cols(pts), 8, 1.0, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Adaptive(cols(pts), bw, kernel.Quartic, grid, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				for rep := 0; rep < 20; rep++ {
					got, err := Adaptive(cols(pts), bw, kernel.Quartic, grid, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range got.Values {
						if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
							t.Fatalf("workers=%d rep %d: pixel %d = %x, want %x (workers=1)",
								workers, rep, i, math.Float64bits(v), math.Float64bits(want.Values[i]))
						}
					}
				}
			}
		})
	}
}

func TestAdaptiveBandwidthsStructure(t *testing.T) {
	// Dense cluster points get smaller bandwidths than isolated ones.
	r := rand.New(rand.NewSource(26))
	dense := dataset.GaussianClusters(r, 200, box, []dataset.Cluster{
		{Center: geom.Point{X: 30, Y: 40}, Sigma: 2, Weight: 1},
	}, 0).Points()
	isolated := geom.Point{X: 95, Y: 75}
	pts := append(dense, isolated)
	bw, err := AdaptiveBandwidths(cols(pts), 5, 1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	meanDense := 0.0
	for _, b := range bw[:len(dense)] {
		meanDense += b
	}
	meanDense /= float64(len(dense))
	if bw[len(bw)-1] < 5*meanDense {
		t.Errorf("isolated bandwidth %v not ≫ dense mean %v", bw[len(bw)-1], meanDense)
	}
	// Floor respected.
	all := make([]geom.Point, 10)
	for i := range all {
		all[i] = geom.Point{X: 1, Y: 1} // duplicates: kNN distance 0
	}
	bw, err = AdaptiveBandwidths(cols(all), 3, 1.0, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bw {
		if b != 0.75 {
			t.Fatalf("floor not applied: %v", b)
		}
	}
	if _, err := AdaptiveBandwidths(cols(pts), 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := AdaptiveBandwidths(cols(pts), 3, 0, 1); err == nil {
		t.Error("zero scale accepted")
	}
}

// ---- Bandwidth selection ----

func TestSilvermanBandwidth(t *testing.T) {
	// Known variance: points on a circle of radius r have σ_x = σ_y = r/√2.
	var pts []geom.Point
	const n, r = 1000, 10.0
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / n
		pts = append(pts, geom.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)})
	}
	b, err := SilvermanBandwidth(cols(pts))
	if err != nil {
		t.Fatal(err)
	}
	want := r / math.Sqrt2 * math.Pow(n, -1.0/6)
	if math.Abs(b-want)/want > 0.01 {
		t.Errorf("Silverman = %v, want %v", b, want)
	}
	if _, err := SilvermanBandwidth(cols(pts[:1])); err == nil {
		t.Error("single point accepted")
	}
	same := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}
	if _, err := SilvermanBandwidth(cols(same)); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestSelectBandwidthCVPrefersTrueScale(t *testing.T) {
	// Data from Gaussian blobs with σ=3: CV should prefer a bandwidth near
	// the blob scale over extreme candidates.
	r := rand.New(rand.NewSource(27))
	pts := dataset.GaussianClusters(r, 600, box, []dataset.Cluster{
		{Center: geom.Point{X: 30, Y: 30}, Sigma: 3, Weight: 1},
		{Center: geom.Point{X: 70, Y: 60}, Sigma: 3, Weight: 1},
	}, 0.05).Points()
	best, err := SelectBandwidthCV(cols(pts), kernel.Quartic, []float64{0.3, 4, 60}, 5, 27)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Errorf("CV chose %v, want 4 (blob scale)", best)
	}
}

func TestSelectBandwidthCVValidation(t *testing.T) {
	pts := clusteredPoints(28, 100)
	if _, err := SelectBandwidthCV(cols(pts), kernel.Quartic, nil, 5, 1); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := SelectBandwidthCV(cols(pts), kernel.Quartic, []float64{1}, 1, 1); err == nil {
		t.Error("folds=1 accepted")
	}
	if _, err := SelectBandwidthCV(cols(pts[:4]), kernel.Quartic, []float64{1}, 5, 1); err == nil {
		t.Error("too few points accepted")
	}
	if _, err := SelectBandwidthCV(cols(pts), kernel.Gaussian, []float64{1}, 5, 1); err == nil {
		t.Error("Gaussian accepted")
	}
	if _, err := SelectBandwidthCV(cols(pts), kernel.Quartic, []float64{-1}, 5, 1); err == nil {
		t.Error("negative candidate accepted")
	}
}
