package kfunc

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

func TestCrossCountHandValues(t *testing.T) {
	a := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	b := []geom.Point{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 11, Y: 0}}
	if got := CrossCount(cols(a), cols(b), 0.5); got != 0 {
		t.Errorf("K12(0.5) = %d", got)
	}
	if got := CrossCount(cols(a), cols(b), 1); got != 2 { // (a0,b0) and (a1,b2)
		t.Errorf("K12(1) = %d, want 2", got)
	}
	if got := CrossCount(cols(a), cols(b), 2); got != 3 {
		t.Errorf("K12(2) = %d, want 3", got)
	}
	if got := CrossCount(cols(a), cols(b), 100); got != 6 {
		t.Errorf("K12(100) = %d, want 6", got)
	}
	if CrossCount(cols(nil), cols(b), 5) != 0 || CrossCount(cols(a), cols(nil), 5) != 0 {
		t.Error("empty side should count 0")
	}
}

func TestCrossCurveMatchesCounts(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := dataset.UniformCSR(r, 300, box).Points()
	b := dataset.UniformCSR(r, 200, box).Points()
	thresholds := []float64{1, 3, 7, 15}
	ax, ay := geom.SplitXY(a)
	bx, by := geom.SplitXY(b)
	curve, err := CrossCurve(ax, ay, bx, by, thresholds)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range thresholds {
		if want := CrossCount(cols(a), cols(b), s); curve[i] != want {
			t.Errorf("s=%v: %d vs %d", s, curve[i], want)
		}
	}
	if _, err := CrossCurve(ax, ay, bx, by, nil); err == nil {
		t.Error("nil thresholds accepted")
	}
	// Symmetry: K12 count equals K21 count (pairs are pairs).
	rev, _ := CrossCurve(bx, by, ax, ay, thresholds)
	for i := range thresholds {
		if rev[i] != curve[i] {
			t.Errorf("asymmetric cross count at %d: %d vs %d", i, rev[i], curve[i])
		}
	}
}

// Attraction: type-a events placed around type-b events exceed the
// random-labelling envelope; independently scattered types stay inside.
func TestCrossPlotDetectsAttraction(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	// b: 30 "bars"; a: "crimes" jittered around bars.
	bars := dataset.UniformCSR(r, 30, box).Points()
	var crimes []geom.Point
	for len(crimes) < 400 {
		c := bars[r.Intn(len(bars))]
		p := geom.Point{X: c.X + r.NormFloat64()*2, Y: c.Y + r.NormFloat64()*2}
		if box.Contains(p) {
			crimes = append(crimes, p)
		}
	}
	thresholds := []float64{2, 4, 8}
	plot, err := CrossPlot(cols(crimes), cols(bars), thresholds, 19, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if plot.RegimeAt(0) != Clustered {
		t.Errorf("attracted types regime = %v", plot.RegimeAt(0))
	}

	// Independent types: mostly random.
	indepA := dataset.UniformCSR(r, 400, box).Points()
	indepB := dataset.UniformCSR(r, 30, box).Points()
	plot, err = CrossPlot(cols(indepA), cols(indepB), thresholds, 19, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	randomCount := 0
	for i := range thresholds {
		if plot.RegimeAt(i) == Random {
			randomCount++
		}
	}
	if randomCount < 2 {
		t.Errorf("independent types random at only %d/3 thresholds", randomCount)
	}
}

func TestCrossPlotValidation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := dataset.UniformCSR(r, 10, box).Points()
	if _, err := CrossPlot(cols(a), cols(a), []float64{1}, 0, 1, r); err == nil {
		t.Error("0 sims accepted")
	}
	if _, err := CrossPlot(cols(nil), cols(a), []float64{1}, 5, 1, r); err == nil {
		t.Error("empty type accepted")
	}
}

// Knox: a two-wave outbreak has space-time interaction; shuffled times on
// the same locations do not.
func TestKnoxDetectsInteraction(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	d := dataset.SpatioTemporalOutbreak(r, 800, box, 0, 100, []dataset.Wave{
		{Center: geom.Point{X: 25, Y: 25}, Sigma: 5, TimeMean: 20, TimeSigma: 6, Weight: 1},
		{Center: geom.Point{X: 75, Y: 75}, Sigma: 5, TimeMean: 80, TimeSigma: 6, Weight: 1},
	}, 0.2)
	res, err := Knox(d.Columns(), d.Times(), 5, 10, 99, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.05 || res.Z < 2 {
		t.Errorf("outbreak Knox: z=%v p=%v", res.Z, res.P)
	}
	if float64(res.Statistic) <= res.PermMean {
		t.Errorf("observed %d not above permutation mean %v", res.Statistic, res.PermMean)
	}

	// Destroy the interaction by shuffling times.
	shuffled := append([]float64(nil), d.Times()...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	res, err = Knox(d.Columns(), shuffled, 5, 10, 99, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.05 && math.Abs(res.Z) > 3 {
		t.Errorf("shuffled times still significant: z=%v p=%v", res.Z, res.P)
	}
}

func TestKnoxValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	times := []float64{1, 2, 3}
	if _, err := Knox(cols(pts), times[:2], 1, 1, 9, 1, r); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Knox(cols(pts[:2]), times[:2], 1, 1, 9, 1, r); err == nil {
		t.Error("2 events accepted")
	}
	if _, err := Knox(cols(pts), times, 1, 1, 0, 1, r); err == nil {
		t.Error("0 perms accepted")
	}
	if _, err := Knox(cols(pts), times, 1, 1, 9, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if res, err := Knox(cols(pts), times, 5, 5, 9, 1, r); err != nil || res.Statistic != 3 {
		t.Errorf("tiny Knox: %+v, %v", res, err)
	}
}
