package kfunc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func csr(seed int64, n int) []geom.Point {
	return dataset.UniformCSR(rand.New(rand.NewSource(seed)), n, box).Points()
}

func clustered(seed int64, n int) []geom.Point {
	r := rand.New(rand.NewSource(seed))
	return dataset.GaussianClusters(r, n, box, []dataset.Cluster{
		{Center: geom.Point{X: 30, Y: 30}, Sigma: 4, Weight: 1},
		{Center: geom.Point{X: 70, Y: 60}, Sigma: 4, Weight: 1},
	}, 0.1).Points()
}

func TestNaiveHandValues(t *testing.T) {
	// Three collinear points at x = 0, 3, 10.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 10, Y: 0}}
	if got := Naive(cols(pts), 2); got != 0 {
		t.Errorf("K(2) = %d, want 0", got)
	}
	if got := Naive(cols(pts), 3); got != 2 { // (0,3) both directions; boundary inclusive
		t.Errorf("K(3) = %d, want 2", got)
	}
	if got := Naive(cols(pts), 7); got != 4 {
		t.Errorf("K(7) = %d, want 4", got)
	}
	if got := Naive(cols(pts), 10); got != 6 {
		t.Errorf("K(10) = %d, want 6", got)
	}
	if got := Naive(cols(nil), 5); got != 0 {
		t.Errorf("K on empty = %d", got)
	}
}

func TestIndexedMethodsMatchNaive(t *testing.T) {
	for _, gen := range []func(int64, int) []geom.Point{csr, clustered} {
		pts := gen(1, 600)
		for _, s := range []float64{0.5, 3, 10, 40, 200} {
			want := Naive(cols(pts), s)
			if got := GridIndexed(pts, s); got != want {
				t.Errorf("GridIndexed(s=%v) = %d, want %d", s, got, want)
			}
			if got := KDTreeIndexed(pts, s); got != want {
				t.Errorf("KDTreeIndexed(s=%v) = %d, want %d", s, got, want)
			}
		}
	}
}

func TestCurveMatchesNaiveCurve(t *testing.T) {
	pts := clustered(2, 400)
	thresholds := []float64{1, 2, 5, 10, 20, 50}
	fast, err := curveOf(pts, thresholds, 0)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveCurve(cols(pts), thresholds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range thresholds {
		if fast[i] != naive[i] {
			t.Errorf("s=%v: Curve %d vs NaiveCurve %d", thresholds[i], fast[i], naive[i])
		}
	}
	// Parallel agrees with serial.
	par, err := curveOf(pts, thresholds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range thresholds {
		if par[i] != fast[i] {
			t.Errorf("parallel curve differs at %d", i)
		}
	}
}

func TestCurveMonotone(t *testing.T) {
	pts := csr(3, 500)
	thresholds := []float64{1, 2, 4, 8, 16, 32, 64, 128, 150}
	counts, err := curveOf(pts, thresholds, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i, c := range counts {
		if c < prev {
			t.Fatalf("K not monotone at %d: %d < %d", i, c, prev)
		}
		prev = c
	}
	// At s >= diameter every ordered pair counts.
	n := len(pts)
	if counts[len(counts)-1] != n*(n-1) {
		t.Errorf("K(diam) = %d, want %d", counts[len(counts)-1], n*(n-1))
	}
}

func TestThresholdValidation(t *testing.T) {
	pts := csr(4, 10)
	cases := [][]float64{
		{},           // empty
		{5, 5},       // not strictly increasing
		{5, 3},       // decreasing
		{-1, 2},      // negative
		{math.NaN()}, // NaN
	}
	for i, ts := range cases {
		if _, err := curveOf(pts, ts, 0); err == nil {
			t.Errorf("case %d: thresholds %v accepted", i, ts)
		}
		if _, err := NaiveCurve(cols(pts), ts); err == nil {
			t.Errorf("case %d: NaiveCurve accepted %v", i, ts)
		}
	}
}

func TestEstimateAndBesagL(t *testing.T) {
	// Under CSR, K̂(s) ≈ πs² and L(s) ≈ s.
	pts := csr(5, 2000)
	const s = 5.0
	count := GridIndexed(pts, s)
	kHat := Estimate(count, len(pts), box.Area())
	if math.Abs(kHat-math.Pi*s*s)/(math.Pi*s*s) > 0.15 {
		t.Errorf("K̂(%v) = %v, want ≈ %v", s, kHat, math.Pi*s*s)
	}
	l := BesagL(kHat)
	if math.Abs(l-s) > 0.5 {
		t.Errorf("L(%v) = %v, want ≈ %v", s, l, s)
	}
	if Estimate(10, 1, 100) != 0 {
		t.Error("Estimate with n<2 should be 0")
	}
	if BesagL(-3) != 0 {
		t.Error("BesagL of negative should be 0")
	}
}

func TestBorderCorrectedLessBiased(t *testing.T) {
	pts := csr(6, 3000)
	const s = 10.0
	kHat := Estimate(GridIndexed(pts, s), len(pts), box.Area())
	corrected, eligible, ok := BorderCorrected(cols(pts), s, box)
	if !ok {
		t.Fatal("no eligible points")
	}
	if eligible >= len(pts) {
		t.Errorf("eligible = %d, want < n", eligible)
	}
	truth := math.Pi * s * s
	if math.Abs(corrected-truth) >= math.Abs(kHat-truth) {
		t.Errorf("border correction did not reduce bias: |%v-πs²| vs |%v-πs²|", corrected, kHat)
	}
	if _, _, ok := BorderCorrected(cols(pts), 51, box); ok {
		t.Error("s > half-window should leave no eligible points")
	}
	if _, _, ok := BorderCorrected(cols(nil), 1, box); ok {
		t.Error("empty dataset should not be ok")
	}
}

// Figure 2's reading: clustered data exits above the envelope, CSR stays
// inside, dispersed data falls below.
func TestPlotRegimes(t *testing.T) {
	thresholds := []float64{2, 4, 6, 8, 10}
	opt := PlotOptions{Thresholds: thresholds, Simulations: 39, Window: box}
	rng := rand.New(rand.NewSource(7))

	cl, err := MakePlot(clustered(8, 500), opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	clusteredSomewhere := false
	for d := range thresholds {
		if cl.RegimeAt(d) == Clustered {
			clusteredSomewhere = true
		}
	}
	if !clusteredSomewhere {
		t.Error("clustered data never classified Clustered")
	}

	rnd, err := MakePlot(csr(9, 500), opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	randomCount := 0
	for d := range thresholds {
		if rnd.RegimeAt(d) == Random {
			randomCount++
		}
	}
	if randomCount < len(thresholds)-1 {
		t.Errorf("CSR data classified Random at only %d/%d thresholds", randomCount, len(thresholds))
	}

	disp := dataset.Dispersed(rand.New(rand.NewSource(10)), 500, box, 4)
	dp, err := MakePlot(disp.Points(), opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	dispersedSomewhere := false
	for d := range thresholds {
		if dp.RegimeAt(d) == Dispersed {
			dispersedSomewhere = true
		}
	}
	if !dispersedSomewhere {
		t.Error("dispersed data never classified Dispersed")
	}
}

func TestPlotValidation(t *testing.T) {
	pts := csr(11, 20)
	if _, err := MakePlot(pts, PlotOptions{Thresholds: []float64{1}, Simulations: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("0 simulations accepted")
	}
	if _, err := MakePlot(nil, PlotOptions{Thresholds: []float64{1}, Simulations: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty dataset with no window accepted")
	}
}

func TestRegimeString(t *testing.T) {
	if Random.String() != "random" || Clustered.String() != "clustered" || Dispersed.String() != "dispersed" {
		t.Error("Regime names wrong")
	}
}

func TestAllIndexesAgree(t *testing.T) {
	for _, gen := range []func(int64, int) []geom.Point{csr, clustered} {
		pts := gen(70, 500)
		for _, s := range []float64{1, 6, 25} {
			want := Naive(cols(pts), s)
			if got := BallTreeIndexed(pts, s); got != want {
				t.Errorf("BallTree(s=%v) = %d, want %d", s, got, want)
			}
			if got := RTreeIndexed(pts, s); got != want {
				t.Errorf("RTree(s=%v) = %d, want %d", s, got, want)
			}
		}
	}
}

// curveOf is Curve over a point slice, without cancellation.
func curveOf(pts []geom.Point, thresholds []float64, workers int) ([]int, error) {
	xs, ys := geom.SplitXY(pts)
	return Curve(context.Background(), xs, ys, thresholds, workers)
}
