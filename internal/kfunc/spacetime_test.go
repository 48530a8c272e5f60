package kfunc

import (
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

func stData(seed int64, n int) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	return dataset.SpatioTemporalOutbreak(r, n, box, 0, 100, []dataset.Wave{
		{Center: geom.Point{X: 25, Y: 25}, Sigma: 5, TimeMean: 20, TimeSigma: 5, Weight: 1},
		{Center: geom.Point{X: 75, Y: 75}, Sigma: 5, TimeMean: 70, TimeSigma: 5, Weight: 1},
	}, 0.1)
}

func mustSTNaive(tb testing.TB, c dataset.Columns, times []float64, s, t float64) int {
	tb.Helper()
	k, err := STNaive(c, times, s, t)
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

func TestSTNaiveHandValues(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 0}}
	times := []float64{0, 0, 10}
	// Pair (0,1): ds=3, dt=0. Pair (0,2): ds=0, dt=10. Pair (1,2): ds=3, dt=10.
	if got := mustSTNaive(t, cols(pts), times, 3, 0); got != 2 {
		t.Errorf("K(3,0) = %d, want 2", got)
	}
	if got := mustSTNaive(t, cols(pts), times, 0, 10); got != 2 {
		t.Errorf("K(0,10) = %d, want 2", got)
	}
	if got := mustSTNaive(t, cols(pts), times, 3, 10); got != 6 {
		t.Errorf("K(3,10) = %d, want 6", got)
	}
	if got := mustSTNaive(t, cols(pts), times, 1, 1); got != 0 {
		t.Errorf("K(1,1) = %d, want 0", got)
	}
	if _, err := STNaive(cols(pts), nil, 3, 10); err == nil {
		t.Error("events without times accepted")
	}
}

func TestSTSurfaceMatchesNaive(t *testing.T) {
	d := stData(1, 300)
	sTh := []float64{2, 5, 10, 30}
	tTh := []float64{1, 5, 20, 60}
	surface, err := STSurface(d.Columns().X, d.Columns().Y, d.Times(), sTh, tTh, 0)
	if err != nil {
		t.Fatal(err)
	}
	for a, s := range sTh {
		for b, tt := range tTh {
			want := mustSTNaive(t, d.Columns(), d.Times(), s, tt)
			if got := surface[a*len(tTh)+b]; got != want {
				t.Errorf("K(%v,%v) = %d, want %d", s, tt, got, want)
			}
		}
	}
	// Parallel agrees.
	par, err := STSurface(d.Columns().X, d.Columns().Y, d.Times(), sTh, tTh, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range surface {
		if par[i] != surface[i] {
			t.Fatalf("parallel ST surface differs at %d", i)
		}
	}
}

func TestSTSurfaceValidation(t *testing.T) {
	d := stData(2, 20)
	if _, err := STSurface(d.Columns().X, d.Columns().Y, d.Times(), nil, []float64{1}, 0); err == nil {
		t.Error("empty spatial thresholds accepted")
	}
	if _, err := STSurface(d.Columns().X, d.Columns().Y, d.Times(), []float64{1}, []float64{2, 2}, 0); err == nil {
		t.Error("non-increasing temporal thresholds accepted")
	}
	if _, err := STSurface(d.Columns().X, d.Columns().Y, d.Times()[:5], []float64{1}, []float64{1}, 0); err == nil {
		t.Error("mismatched times accepted")
	}
	out, err := STSurface(nil, nil, nil, []float64{1}, []float64{1}, 0)
	if err != nil || out[0] != 0 {
		t.Errorf("empty data: %v %v", out, err)
	}
}

// Monotonicity in both arguments: K(s,t) is non-decreasing along s and t.
func TestSTSurfaceMonotone(t *testing.T) {
	d := stData(3, 400)
	sTh := []float64{1, 3, 7, 15, 31}
	tTh := []float64{2, 6, 14, 30}
	surface, err := STSurface(d.Columns().X, d.Columns().Y, d.Times(), sTh, tTh, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := func(a, b int) int { return surface[a*len(tTh)+b] }
	for a := 0; a < len(sTh); a++ {
		for b := 0; b < len(tTh); b++ {
			if a > 0 && at(a, b) < at(a-1, b) {
				t.Fatalf("not monotone in s at (%d,%d)", a, b)
			}
			if b > 0 && at(a, b) < at(a, b-1) {
				t.Fatalf("not monotone in t at (%d,%d)", a, b)
			}
		}
	}
}

// The Figure 6 reading: a two-wave outbreak (space-time interaction) shows
// K above the envelope at small (s,t); a dataset with the same spatial
// pattern but shuffled times does not (no interaction beyond spatial
// clustering... so compare against the interaction-free null directly).
func TestSTPlotDetectsInteraction(t *testing.T) {
	d := stData(4, 500)
	sTh := []float64{3, 6, 12}
	tTh := []float64{5, 10, 20}
	rng := rand.New(rand.NewSource(5))
	p, err := MakeSTPlot(d, sTh, tTh, 19, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p.RegimeAt(0, 0) != Clustered {
		k, lo, hi := p.At(0, 0)
		t.Errorf("outbreak not clustered at smallest thresholds: K=%v env=[%v,%v]", k, lo, hi)
	}
	// Pure CSR with uniform times reads Random nearly everywhere.
	r2 := rand.New(rand.NewSource(6))
	null := dataset.UniformCSR(r2, 500, box)
	nullTimes := make([]float64, null.N())
	for i := range nullTimes {
		nullTimes[i] = r2.Float64() * 100
	}
	if err := null.SetTimes(nullTimes); err != nil {
		t.Fatal(err)
	}
	pNull, err := MakeSTPlot(null, sTh, tTh, 19, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	randomCount := 0
	for a := range sTh {
		for b := range tTh {
			if pNull.RegimeAt(a, b) == Random {
				randomCount++
			}
		}
	}
	if randomCount < len(sTh)*len(tTh)-2 {
		t.Errorf("null data Random at only %d/%d cells", randomCount, len(sTh)*len(tTh))
	}
}

func TestMakeSTPlotValidation(t *testing.T) {
	d := stData(7, 30)
	rng := rand.New(rand.NewSource(8))
	if _, err := MakeSTPlot(d, []float64{1}, []float64{1}, 0, 0, rng); err == nil {
		t.Error("0 sims accepted")
	}
	noTimes := dataset.FromPoints(d.Points())
	if _, err := MakeSTPlot(noTimes, []float64{1}, []float64{1}, 5, 0, rng); err == nil {
		t.Error("dataset without times accepted")
	}
	// Events whose bounding box has zero area leave CSR nowhere to draw.
	for name, pts := range map[string][]geom.Point{
		"collinear": {{X: 0, Y: 5}, {X: 3, Y: 5}, {X: 9, Y: 5}},
		"single":    {{X: 2, Y: 2}},
	} {
		flat, err := dataset.New(pts, make([]float64, len(pts)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MakeSTPlot(flat, []float64{1}, []float64{1}, 5, 0, rng); err == nil {
			t.Errorf("%s events (zero-area window) accepted", name)
		}
	}
}
