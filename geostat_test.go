package geostat

import (
	"math"
	"math/rand"
	"testing"
)

// These tests exercise the public facade end-to-end: every tool of the
// paper's Table 1 plus the KDV/K-function variants, through the exported
// API only. Algorithm-level correctness lives in the internal packages'
// own suites; here we check the wiring, option handling and headline
// behaviours.

var box = BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

func hotspotData(seed int64, n int) *Dataset {
	r := rand.New(rand.NewSource(seed))
	return GaussianClusters(r, n, box, []GaussianCluster{
		{Center: Point{X: 30, Y: 60}, Sigma: 5, Weight: 1},
	}, 0.2)
}

func TestKDVMethodsAgree(t *testing.T) {
	d := hotspotData(1, 500)
	grid := NewPixelGrid(box, 32, 32)
	base := KDVOptions{Kernel: MustKernel(Quartic, 10), Grid: grid}

	exact, err := KDVDataset(d, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []KDVMethod{KDVNaive, KDVGridCutoff, KDVSweepLine} {
		opt := base
		opt.Method = m
		got, err := KDVDataset(d, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		diff, _ := got.MaxAbsDiff(exact)
		_, peak := exact.MinMax()
		if diff > 1e-9*(1+peak) {
			t.Errorf("%v differs from auto by %v", m, diff)
		}
	}
	opt := base
	opt.Method = KDVBoundApprox
	opt.Epsilon = 0.05
	approx, err := KDVDataset(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range approx.Values {
		f := exact.Values[i]
		if approx.Values[i] < 0.95*f-1e-9 || approx.Values[i] > 1.05*f+1e-9 {
			t.Fatalf("bound approx outside (1±ε)F at pixel %d", i)
		}
	}
	opt.Method = KDVSampled
	opt.Epsilon, opt.Delta = 0.05, 0.05
	opt.Seed = 2
	if _, err := KDVDataset(d, opt); err != nil {
		t.Fatal(err)
	}
	opt.Method = KDVMethod(99)
	if _, err := KDVDataset(d, opt); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestKDVMethodNames(t *testing.T) {
	names := map[KDVMethod]string{
		KDVAuto: "auto", KDVNaive: "naive", KDVGridCutoff: "grid-cutoff",
		KDVSweepLine: "sweep-line", KDVBoundApprox: "bound-approx", KDVSampled: "sampled",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
		if got, err := ParseKDVMethod(want); err != nil || got != m {
			t.Errorf("ParseKDVMethod(%q) = %v, %v, want %v", want, got, err, m)
		}
	}
	if _, err := ParseKDVMethod("warp"); err == nil || err.Error() != `unknown method "warp"` {
		t.Errorf("ParseKDVMethod(\"warp\") err = %v, want unknown method \"warp\"", err)
	}
	if KDVMethod(42).String() == "" {
		t.Error("unknown method String empty")
	}
	if !SweepLineSupports(Quartic) || SweepLineSupports(Gaussian) {
		t.Error("SweepLineSupports wrong")
	}
}

func TestKernelFacade(t *testing.T) {
	if _, err := NewKernel(Gaussian, -1); err == nil {
		t.Error("bad kernel accepted")
	}
	kt, err := ParseKernel("epanechnikov")
	if err != nil || kt != Epanechnikov {
		t.Errorf("ParseKernel = %v, %v", kt, err)
	}
	if len(AllKernels()) != 8 {
		t.Errorf("AllKernels = %d", len(AllKernels()))
	}
}

func TestKFunctionFacade(t *testing.T) {
	d := hotspotData(3, 300)
	s := 8.0
	if KFunction(d.Points(), s) != KFunctionNaive(d, s) {
		t.Error("indexed and naive K disagree")
	}
	curve, err := KFunctionCurve(d, []float64{2, 4, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if curve[2] != KFunction(d.Points(), 8) {
		t.Error("curve disagrees with single threshold")
	}
	rng := rand.New(rand.NewSource(4))
	plot, err := KFunctionPlot(d.Points(), KPlotOptions{
		Thresholds:  []float64{4, 8, 12},
		Simulations: 19,
		Window:      box,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if plot.RegimeAt(0) != RegimeClustered {
		t.Errorf("hotspot data regime = %v, want clustered", plot.RegimeAt(0))
	}
	kHat := KEstimate(curve[2], d.N(), box.Area())
	if kHat <= 0 {
		t.Errorf("KEstimate = %v", kHat)
	}
	if l := BesagL(kHat); l <= 0 {
		t.Errorf("BesagL = %v", l)
	}
	if _, _, ok := KFunctionBorderCorrected(d, 10, box); !ok {
		t.Error("border corrected failed")
	}
}

func TestNetworkFacade(t *testing.T) {
	g := GridNetwork(6, 6, 10, Point{})
	events := ClusteredNetworkEvents(g, 150, 2, 4, 5)
	opt := NKDVOptions{Kernel: MustKernel(Epanechnikov, 10), LixelLength: 3}
	fast, err := NKDV(g, events, opt)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NKDVNaive(g, events, opt)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := fast.MaxAbsDiff(slow); diff > 1e-9 {
		t.Errorf("NKDV methods differ by %v", diff)
	}
	th := []float64{5, 10, 20}
	curve, err := NetworkKFunctionCurve(g, events, th, 0)
	if err != nil {
		t.Fatal(err)
	}
	if curve[1] != NetworkKFunction(g, events, 10) {
		t.Error("network curve vs single disagree")
	}
	plot, err := NetworkKFunctionPlot(g, events, th, 9, 0, NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(plot.K) != 3 {
		t.Errorf("plot size %d", len(plot.K))
	}
	// Snap round-trip.
	pos, dist := SnapToNetwork(g, Point{X: 11, Y: 19.5})
	if dist > 1.01 {
		t.Errorf("snap distance %v", dist)
	}
	_ = pos
	if RandomNetworkEventsRand(NewRand(6), g, 10)[0].Edge < 0 {
		t.Error("random event bad edge")
	}
	if RingRadialNetwork(2, 6, 5, Point{}).NumNodes() != 13 {
		t.Error("ring-radial node count")
	}
}

func TestSTKDVFacade(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := SpatioTemporalOutbreak(r, 400, box, 0, 50, []OutbreakWave{
		{Center: Point{X: 20, Y: 20}, Sigma: 4, TimeMean: 10, TimeSigma: 3, Weight: 1},
		{Center: Point{X: 80, Y: 80}, Sigma: 4, TimeMean: 40, TimeSigma: 3, Weight: 1},
	}, 0.1)
	opt := STKDVOptions{
		SpaceKernel: MustKernel(Quartic, 10),
		TimeKernel:  MustKernel(Epanechnikov, 6),
		Grid:        NewPixelGrid(box, 20, 20),
		Times:       []float64{10, 40},
	}
	shared, err := STKDV(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := STKDVNaive(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if diff, _ := shared.MaxAbsDiff(naive); diff > 1e-9 {
		t.Errorf("STKDV methods differ by %v", diff)
	}
	// Spatiotemporal K-function wiring.
	if _, err := STKFunctionSurface(d, []float64{5, 10}, []float64{5, 10}, 0); err != nil {
		t.Fatal(err)
	}
	if k, err := STKFunction(d, 10, 10); err != nil || k <= 0 {
		t.Errorf("STKFunction = %d, %v on clustered data", k, err)
	}
	if _, err := STKFunction(FromPoints(d.Points()), 10, 10); err == nil {
		t.Error("STKFunction accepted a dataset without times")
	}
	if _, err := STKFunctionPlot(d, []float64{5}, []float64{5}, 5, 0, r); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolationFacade(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := UniformCSR(r, 500, box)
	WithField(r, d, func(p Point) float64 { return p.X/10 + math.Sin(p.Y/15) }, 0.05)
	grid := NewPixelGrid(box, 16, 16)

	naive, err := IDW(d, IDWOptions{Grid: grid, Power: 2})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := IDWKNN(d, IDWOptions{Grid: grid, Power: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	radius, err := IDWRadius(d, IDWOptions{Grid: grid, Power: 2}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Heatmap{naive, knn, radius} {
		lo, hi := h.MinMax()
		if math.IsNaN(lo) || math.IsNaN(hi) {
			t.Fatal("IDW produced NaN")
		}
	}

	bins, err := EmpiricalVariogram(d, 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	v, err := FitVariogram(bins, SphericalModel)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := Krige(d, KrigingOptions{Grid: grid, Variogram: v, Neighbors: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Kriging and IDW should broadly agree on a smooth field.
	diff, _ := kr.MaxAbsDiff(knn)
	if diff > 3 {
		t.Errorf("kriging vs IDW diff %v", diff)
	}
}

func TestAutocorrelationFacade(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	d := UniformCSR(r, 400, box)
	WithField(r, d, func(p Point) float64 { return p.X + p.Y }, 1)

	w, err := KNNWeightsDataset(d, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := MoranIOpt(d.Values(), w, MoranOptions{Perms: 99, Seed: r.Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if mi.I < 0.5 {
		t.Errorf("gradient Moran I = %v", mi.I)
	}
	if _, err := LocalMoranOpt(d.Values(), w, MoranOptions{}); err != nil {
		t.Fatal(err)
	}
	wb, err := DistanceBandWeightsDataset(d, 10, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Shift values positive for General G.
	pos := make([]float64, len(d.Values()))
	for i, v := range d.Values() {
		pos[i] = v + 10
	}
	gg, err := GeneralGOpt(pos, wb, GetisOrdOptions{Perms: 99, Seed: 11, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if gg.G <= 0 {
		t.Errorf("GeneralG = %v", gg.G)
	}
	if _, err := LocalGStar(pos, wb); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringFacade(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := GaussianClusters(r, 600, box, []GaussianCluster{
		{Center: Point{X: 20, Y: 20}, Sigma: 2, Weight: 1},
		{Center: Point{X: 80, Y: 80}, Sigma: 2, Weight: 1},
	}, 0)
	labels, err := DBSCAN(d, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(labels) != 2 {
		t.Errorf("DBSCAN clusters = %d", NumClusters(labels))
	}
	slow, err := DBSCANNaive(d, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if NumClusters(slow) != 2 {
		t.Errorf("naive DBSCAN clusters = %d", NumClusters(slow))
	}
	km, err := KMeans(d, 2, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Centers) != 2 {
		t.Errorf("KMeans centers = %d", len(km.Centers))
	}
}

func TestDataFacade(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := MaternCluster(r, box, 0.003, 20, 5)
	if m.N() == 0 {
		t.Error("Matérn empty")
	}
	disp := Dispersed(r, 100, box, 5)
	if disp.N() != 100 {
		t.Error("Dispersed size")
	}
	if NewBBox(disp.Points()).IsEmpty() {
		t.Error("bbox empty")
	}
	fp := FromPoints(disp.Points())
	if fp.N() != 100 {
		t.Error("FromPoints size")
	}
}
