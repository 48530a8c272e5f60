package geostat

import (
	"math"
	"math/rand"
	"testing"
)

// Facade wiring tests for the extension features, by subject: KDV
// (multi-bandwidth, adaptive, bandwidth selection, streaming, contours,
// count grids), the K-function family (CSR tests, cross-K, Knox),
// autocorrelation (Geary's C, LISA quadrants) and equal-split NKDV.

// ---- KDV ----

func TestMultiBandwidthFacade(t *testing.T) {
	d := hotspotData(40, 400)
	grid := NewPixelGrid(box, 20, 20)
	bw := []float64{4, 8, 16}
	surfaces, err := KDVMultiBandwidth(d, grid, Quartic, bw, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bw {
		want, err := KDVDataset(d, KDVOptions{Kernel: MustKernel(Quartic, b), Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		diff, _ := surfaces[i].MaxAbsDiff(want)
		_, peak := want.MinMax()
		if diff > 1e-9*(1+peak) {
			t.Errorf("b=%v differs by %v", b, diff)
		}
	}
}

func TestAdaptiveFacade(t *testing.T) {
	d := hotspotData(41, 500)
	// Pixel pitch 2; keep the bandwidth floor above it so dense-cluster
	// points (tiny kNN distances) still cover pixel centers.
	grid := NewPixelGrid(box, 50, 50)
	bw, err := AdaptiveBandwidths(d, 10, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := KDVAdaptive(d, bw, Quartic, grid, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive surface must still peak inside the planted cluster.
	ix, iy, _ := hm.ArgMax()
	if grid.Center(ix, iy).Dist(Point{X: 30, Y: 60}) > 15 {
		t.Errorf("adaptive hotspot at %v", grid.Center(ix, iy))
	}
}

func TestBandwidthSelectionFacade(t *testing.T) {
	d := hotspotData(42, 600)
	b, err := SilvermanBandwidth(d.Points())
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 || b > 50 {
		t.Errorf("Silverman = %v", b)
	}
	best, err := SelectBandwidthCV(d, Quartic, []float64{b / 4, b, b * 4}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range []float64{b / 4, b, b * 4} {
		if best == c {
			found = true
		}
	}
	if !found {
		t.Errorf("CV returned non-candidate %v", best)
	}
}

func TestStreamingFacade(t *testing.T) {
	k := MustKernel(Quartic, 8)
	grid := NewPixelGrid(box, 20, 20)
	s, err := NewKDVStream(k, grid)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(Point{X: 50, Y: 50})
	s.Add(Point{X: 20, Y: 20})
	s.Remove(Point{X: 20, Y: 20})
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
	single, err := KDVDataset(FromPoints([]Point{{X: 50, Y: 50}}), KDVOptions{Kernel: k, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := s.Snapshot().MaxAbsDiff(single); d > 1e-9 {
		t.Errorf("stream differs by %v", d)
	}

	r := rand.New(rand.NewSource(62))
	d2 := SpatioTemporalOutbreak(r, 200, box, 0, 50, nil, 1)
	w, err := NewKDVWindowStream(k, grid, d2, 10)
	if err != nil {
		t.Fatal(err)
	}
	w.Advance(25)
	if w.Live() == 0 || w.Live() == 200 {
		t.Errorf("window Live = %d", w.Live())
	}
}

func TestContourFacade(t *testing.T) {
	d := hotspotData(63, 3000)
	grid := NewPixelGrid(box, 100, 100)
	hm, err := KDVDataset(d, KDVOptions{Kernel: MustKernel(Quartic, 8), Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	_, _, peak := hm.ArgMax()
	segs := hm.Contour(peak / 2)
	if len(segs) < 10 {
		t.Fatalf("only %d contour segments", len(segs))
	}
	// All half-peak contour points lie near the planted cluster (30, 60).
	for _, s := range segs {
		mid := Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
		if mid.Dist(Point{X: 30, Y: 60}) > 25 {
			t.Fatalf("contour point %v far from hotspot", mid)
		}
	}
	if hm.AreaAbove(peak/2) <= 0 {
		t.Error("hotspot area zero")
	}

	counts := CountGrid(d, NewPixelGrid(box, 10, 10))
	if int(counts.Sum()) != d.N() {
		t.Errorf("CountGrid sum %v, want %d", counts.Sum(), d.N())
	}
}

func TestContourLevelSets(t *testing.T) {
	// Nested contours: higher levels enclose smaller areas.
	grid := NewPixelGrid(box, 80, 80)
	hm, err := KDVDataset(hotspotData(64, 2000), KDVOptions{Kernel: MustKernel(Quartic, 10), Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	_, _, peak := hm.ArgMax()
	prev := math.Inf(1)
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		a := hm.AreaAbove(peak * frac)
		if a >= prev {
			t.Fatalf("AreaAbove not nested at %v: %v >= %v", frac, a, prev)
		}
		prev = a
	}
}

// ---- K-function family ----

func TestCSRTestsFacade(t *testing.T) {
	d := hotspotData(43, 1200)
	q, err := QuadratTest(d, box, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Regime(0.05) != RegimeClustered {
		t.Errorf("quadrat regime = %v (p=%v vmr=%v)", q.Regime(0.05), q.P, q.VMR)
	}
	ce, err := ClarkEvans(d, box)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Regime(0.05) != RegimeClustered {
		t.Errorf("Clark-Evans regime = %v (R=%v)", ce.Regime(0.05), ce.R)
	}
}

func TestCrossKAndKnoxFacade(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	bars := UniformCSR(r, 20, box)
	var near []Point
	for len(near) < 200 {
		c := bars.Point(r.Intn(bars.N()))
		p := Point{X: c.X + r.NormFloat64()*2, Y: c.Y + r.NormFloat64()*2}
		if box.Contains(p) {
			near = append(near, p)
		}
	}
	crimes := FromPoints(near)
	if CrossKFunction(crimes, bars, 3) == 0 {
		t.Error("cross K zero on attracted types")
	}
	curve, err := CrossKFunctionCurve(crimes, bars, []float64{1, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if curve[2] != CrossKFunction(crimes, bars, 9) {
		t.Error("cross curve disagrees with single threshold")
	}
	plot, err := CrossKFunctionPlot(crimes, bars, []float64{1, 3, 9}, 9, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if plot.RegimeAt(1) != RegimeClustered {
		t.Errorf("cross plot regime = %v", plot.RegimeAt(1))
	}

	d := SpatioTemporalOutbreak(r, 500, box, 0, 100, []OutbreakWave{
		{Center: Point{X: 30, Y: 30}, Sigma: 5, TimeMean: 25, TimeSigma: 6, Weight: 1},
		{Center: Point{X: 70, Y: 70}, Sigma: 5, TimeMean: 75, TimeSigma: 6, Weight: 1},
	}, 0.2)
	knox, err := KnoxTest(d, 5, 10, 99, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if knox.P > 0.05 {
		t.Errorf("Knox p = %v on interacting data", knox.P)
	}
}

// ---- Autocorrelation ----

func TestGearyFacade(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	d := UniformCSR(r, 300, box)
	WithField(r, d, func(p Point) float64 { return p.X }, 0.5)
	w, err := KNNWeightsDataset(d, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GearyCOpt(d.Values(), w, MoranOptions{Perms: 99, Seed: r.Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if g.C >= 1 {
		t.Errorf("gradient Geary C = %v, want < 1", g.C)
	}
	q, err := MoranQuadrants(d.Values(), w)
	if err != nil {
		t.Fatal(err)
	}
	hh, ll := 0, 0
	for _, v := range q {
		switch v {
		case QuadrantHH:
			hh++
		case QuadrantLL:
			ll++
		}
	}
	// A gradient field is dominated by HH and LL sites.
	if hh+ll < len(q)*3/4 {
		t.Errorf("gradient field HH+LL = %d of %d", hh+ll, len(q))
	}
}

// ---- Network ----

func TestEqualSplitNKDVFacade(t *testing.T) {
	g := GridNetwork(6, 6, 10, Point{})
	events := RandomNetworkEventsRand(NewRand(44), g, 100)
	opt := NKDVOptions{Kernel: MustKernel(Epanechnikov, 8), LixelLength: 1}
	esd, err := NKDVEqualSplit(g, events, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NKDV(g, events, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Equal split conserves mass; the plain kernel inflates it at
	// degree-3/4 intersections — integrated mass must be strictly smaller.
	integrate := func(s *NKDVSurface) float64 {
		total := 0.0
		for i, l := range s.Lixels {
			total += s.Values[i] * l.Length()
		}
		return total
	}
	if m1, m2 := integrate(esd), integrate(plain); m1 >= m2 {
		t.Errorf("ESD mass %v should be below plain %v", m1, m2)
	}
	if math.IsNaN(esd.Values[0]) {
		t.Error("NaN in ESD surface")
	}
}
