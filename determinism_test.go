package geostat

import (
	"math/rand"
	"testing"
)

// Worker-count invariance: every parallel Monte-Carlo and inference path
// must give BIT-IDENTICAL results for Workers=1 and Workers=8 under the
// same seed. Each permutation/simulation draws from an RNG derived from
// (seed, task index), so the schedule cannot leak into the statistics.

const detSeed = 7001

func detValued(n int) *Dataset {
	r := rand.New(rand.NewSource(detSeed))
	d := UniformCSR(r, n, box)
	WithField(r, d, func(p Point) float64 { return p.X + p.Y/3 }, 1.0)
	return d
}

func TestMoranGlobalWorkerInvariance(t *testing.T) {
	d := detValued(300)
	w, err := KNNWeightsDataset(d, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *MoranResult {
		res, err := MoranIOpt(d.Values(), w, MoranOptions{Perms: 199, Seed: detSeed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if a.I != b.I || a.Z != b.Z || a.P != b.P || a.PermMean != b.PermMean || a.PermStd != b.PermStd {
		t.Errorf("Moran global differs across workers:\n 1: %+v\n 8: %+v", a, b)
	}
}

func TestMoranLocalWorkerInvariance(t *testing.T) {
	d := detValued(200)
	w, err := KNNWeightsDataset(d, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []LocalMoranResult {
		out, err := LocalMoranOpt(d.Values(), w, MoranOptions{Perms: 99, Seed: detSeed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("local Moran site %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGearyWorkerInvariance(t *testing.T) {
	d := detValued(300)
	w, err := KNNWeightsDataset(d, 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *GearyResult {
		res, err := GearyCOpt(d.Values(), w, MoranOptions{Perms: 199, Seed: detSeed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if *a != *b {
		t.Errorf("Geary differs across workers:\n 1: %+v\n 8: %+v", a, b)
	}
}

func TestGeneralGWorkerInvariance(t *testing.T) {
	d := detValued(300)
	w, err := DistanceBandWeightsDataset(d, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *GeneralGResult {
		res, err := GeneralGOpt(d.Values(), w, GetisOrdOptions{Perms: 199, Seed: detSeed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if *a != *b {
		t.Errorf("General G differs across workers:\n 1: %+v\n 8: %+v", a, b)
	}
}

func TestKPlotWorkerInvariance(t *testing.T) {
	d := hotspotData(detSeed, 300)
	run := func(workers int) *KPlot {
		// Same rng seed each run so the envelope seed matches.
		p, err := KFunctionPlot(d.Points(), KPlotOptions{
			Thresholds:  []float64{2, 5, 10},
			Simulations: 19,
			Window:      box,
			Workers:     workers,
		}, rand.New(rand.NewSource(detSeed)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(1), run(8)
	for i := range a.S {
		if a.K[i] != b.K[i] || a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			t.Fatalf("K plot differs at threshold %d: K %v/%v Lo %v/%v Hi %v/%v",
				i, a.K[i], b.K[i], a.Lo[i], b.Lo[i], a.Hi[i], b.Hi[i])
		}
	}
}

func TestSTKPlotWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(detSeed))
	d := SpatioTemporalOutbreak(r, 250, box, 0, 100, []OutbreakWave{
		{Center: Point{X: 30, Y: 30}, Sigma: 5, TimeMean: 25, TimeSigma: 6, Weight: 1},
	}, 0.3)
	run := func(workers int) *STKPlot {
		p, err := STKFunctionPlot(d, []float64{3, 8}, []float64{10, 25}, 9, workers,
			rand.New(rand.NewSource(detSeed)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(1), run(8)
	for i := range a.K {
		if a.K[i] != b.K[i] || a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			t.Fatalf("ST K plot differs at cell %d", i)
		}
	}
}

func TestNetworkKPlotWorkerInvariance(t *testing.T) {
	g := GridNetwork(6, 6, 10, Point{})
	events := RandomNetworkEventsRand(NewRand(detSeed), g, 60)
	run := func(workers int) *KPlot {
		p, err := NetworkKFunctionPlot(g, events, []float64{5, 12, 25}, 9, workers,
			rand.New(rand.NewSource(detSeed)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(1), run(8)
	for i := range a.S {
		if a.K[i] != b.K[i] || a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			t.Fatalf("network K plot differs at threshold %d", i)
		}
	}
}

func TestCrossPlotAndKnoxWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(detSeed))
	a := UniformCSR(r, 120, box)
	b := UniformCSR(r, 40, box)
	runCross := func(workers int) *KPlot {
		p, err := CrossKFunctionPlot(a, b, []float64{2, 6, 12}, 19, workers,
			rand.New(rand.NewSource(detSeed)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	c1, c8 := runCross(1), runCross(8)
	for i := range c1.S {
		if c1.Lo[i] != c8.Lo[i] || c1.Hi[i] != c8.Hi[i] {
			t.Fatalf("cross plot envelope differs at threshold %d", i)
		}
	}

	d := SpatioTemporalOutbreak(r, 200, box, 0, 100, []OutbreakWave{
		{Center: Point{X: 40, Y: 40}, Sigma: 6, TimeMean: 50, TimeSigma: 10, Weight: 1},
	}, 0.3)
	runKnox := func(workers int) *KnoxResult {
		res, err := KnoxTest(d, 5, 10, 199, workers,
			rand.New(rand.NewSource(detSeed)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	k1, k8 := runKnox(1), runKnox(8)
	if *k1 != *k8 {
		t.Errorf("Knox differs across workers:\n 1: %+v\n 8: %+v", k1, k8)
	}
}

func TestWeightsWorkerInvariance(t *testing.T) {
	d := detValued(400)
	sameMatrix := func(a, b *SpatialWeights) bool {
		if a.N != b.N || a.S0() != b.S0() {
			return false
		}
		for i := 0; i < a.N; i++ {
			var ra, rb [][2]float64
			a.ForEachNeighbor(i, func(j int, w float64) { ra = append(ra, [2]float64{float64(j), w}) })
			b.ForEachNeighbor(i, func(j int, w float64) { rb = append(rb, [2]float64{float64(j), w}) })
			if len(ra) != len(rb) {
				return false
			}
			for k := range ra {
				if ra[k] != rb[k] {
					return false
				}
			}
		}
		return true
	}
	k1, err := KNNWeightsWorkers(d.Points(), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	k8, err := KNNWeightsWorkers(d.Points(), 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatrix(k1, k8) {
		t.Error("KNN weights differ across worker counts")
	}
	b1, err := DistanceBandWeightsDataset(FromPoints(d.Points()), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := DistanceBandWeightsDataset(FromPoints(d.Points()), 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatrix(b1, b8) {
		t.Error("distance-band weights differ across worker counts")
	}
}

func TestKrigeLOOCVWorkerInvariance(t *testing.T) {
	d := detValued(120)
	bins, err := EmpiricalVariogram(d, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	v, err := FitVariogram(bins, SphericalModel)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := KrigeLOOCVWorkers(d, v, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := KrigeLOOCVWorkers(d, v, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RMSE != r8.RMSE || r1.MAE != r8.MAE {
		t.Errorf("LOOCV summary differs: RMSE %v/%v MAE %v/%v", r1.RMSE, r8.RMSE, r1.MAE, r8.MAE)
	}
	for i := range r1.Residuals {
		if r1.Residuals[i] != r8.Residuals[i] {
			t.Fatalf("LOOCV residual %d differs: %v vs %v", i, r1.Residuals[i], r8.Residuals[i])
		}
	}
}
