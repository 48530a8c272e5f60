package kfunc

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kde"
	"geostat/internal/kernel"
)

// The headline use of the custom-null plot: clustered first-order intensity
// without interaction (an inhomogeneous Poisson process) looks "clustered"
// against the CSR null, but reads "random" against the fitted-intensity
// null. True interaction (a Matérn process) exceeds both.
func TestInhomogeneousNullSeparatesIntensityFromInteraction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	thresholds := []float64{2, 4, 6}
	opt := PlotOptions{Thresholds: thresholds, Simulations: 39, Window: box}

	// Ground-truth intensity: one broad Gaussian bump. Draw an
	// interaction-free dataset from it.
	spec := geom.NewPixelGrid(box, 64, 64)
	intensity := make([]float64, spec.NumPixels())
	center := geom.Point{X: 40, Y: 60}
	for iy := 0; iy < spec.NY; iy++ {
		for ix := 0; ix < spec.NX; ix++ {
			d2 := spec.Center(ix, iy).Dist2(center)
			intensity[spec.Index(ix, iy)] = 1 + 20*expApprox(-d2/(2*15*15))
		}
	}
	obs, err := dataset.SampleFromIntensity(rng, spec, intensity, 1500)
	if err != nil {
		t.Fatal(err)
	}

	// Against CSR: the intensity gradient masquerades as clustering.
	csrPlot, err := MakePlot(obs.Points(), opt, rng)
	if err != nil {
		t.Fatal(err)
	}
	if csrPlot.RegimeAt(2) != Clustered {
		t.Errorf("inhomogeneous data vs CSR should read clustered, got %v", csrPlot.RegimeAt(2))
	}

	// Against the FITTED intensity null: fit a KDV to the data, simulate
	// from it — the spurious clustering disappears.
	fit, err := kde.Evaluate(obs.Columns(), kde.Auto, kde.Options{
		Kernel: kernel.MustNew(kernel.Quartic, 12),
		Grid:   spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	inhomPlot, err := MakePlotWithNull(obs.Columns(), opt, func() dataset.Columns {
		sim, err := dataset.SampleFromIntensity(rng, spec, fit.Values, obs.N())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Columns()
	})
	if err != nil {
		t.Fatal(err)
	}
	randomCount := 0
	for i := range thresholds {
		if inhomPlot.RegimeAt(i) == Random {
			randomCount++
		}
	}
	if randomCount < len(thresholds)-1 {
		t.Errorf("intensity-matched null should absorb the gradient: random at %d/%d", randomCount, len(thresholds))
	}

	// True interaction still exceeds the fitted-intensity null: a Matérn
	// process has clustering beyond its smoothed intensity.
	mat := clusteredN(&cfgLike{seed: 2}, 1500)
	fitM, err := kde.Evaluate(dataset.MakeColumns(mat), kde.Auto, kde.Options{Kernel: kernel.MustNew(kernel.Quartic, 12), Grid: spec})
	if err != nil {
		t.Fatal(err)
	}
	matPlot, err := MakePlotWithNull(cols(mat), opt, func() dataset.Columns {
		sim, _ := dataset.SampleFromIntensity(rng, spec, fitM.Values, len(mat))
		return sim.Columns()
	})
	if err != nil {
		t.Fatal(err)
	}
	if matPlot.RegimeAt(0) != Clustered {
		t.Errorf("Matérn vs fitted-intensity null should stay clustered at small s, got %v", matPlot.RegimeAt(0))
	}
}

// cfgLike provides the tiny interface clusteredN-style helpers need here.
type cfgLike struct{ seed int64 }

func clusteredN(c *cfgLike, n int) []geom.Point {
	r := rand.New(rand.NewSource(c.seed))
	pts := dataset.MaternCluster(r, box, 0.004, 25, 3).Points()
	for len(pts) < n {
		extra := dataset.MaternCluster(r, box, 0.004, 25, 3)
		pts = append(pts, extra.Points()...)
	}
	return pts[:n]
}

func expApprox(x float64) float64 { return math.Exp(x) }

func TestMakePlotWithNullValidation(t *testing.T) {
	pts := cols(csr(3, 50))
	sim := func() dataset.Columns { return pts }
	if _, err := MakePlotWithNull(pts, PlotOptions{Thresholds: []float64{1}}, sim); err == nil {
		t.Error("0 simulations accepted")
	}
	if _, err := MakePlotWithNull(pts, PlotOptions{Thresholds: nil, Simulations: 3}, sim); err == nil {
		t.Error("nil thresholds accepted")
	}
	// Self-null: envelopes collapse onto the observed curve.
	p, err := MakePlotWithNull(pts, PlotOptions{Thresholds: []float64{5}, Simulations: 3}, sim)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lo[0] != p.K[0] || p.Hi[0] != p.K[0] {
		t.Errorf("self-null envelope [%v, %v] should equal K %v", p.Lo[0], p.Hi[0], p.K[0])
	}
}
