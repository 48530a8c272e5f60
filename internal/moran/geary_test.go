package moran

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

func TestGearyGradient(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.X + p.Y
	}
	res, err := GearyOpt(vals, w, Options{Perms: 199, Seed: rand.New(rand.NewSource(1)).Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.C >= 0.5 {
		t.Errorf("gradient C = %v, want well below 1", res.C)
	}
	if res.Z >= -3 {
		t.Errorf("gradient z = %v, want very negative", res.Z)
	}
	if res.P > 0.02 {
		t.Errorf("gradient p = %v", res.P)
	}
	if res.Expected != 1 {
		t.Errorf("Expected = %v", res.Expected)
	}
}

func TestGearyCheckerboard(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		if (int(p.X)+int(p.Y))%2 == 0 {
			vals[i] = 1
		} else {
			vals[i] = -1
		}
	}
	res, err := GearyOpt(vals, w, Options{Perms: 199, Seed: rand.New(rand.NewSource(2)).Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.C <= 1.5 {
		t.Errorf("checkerboard C = %v, want well above 1", res.C)
	}
}

func TestGearyRandom(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	r := rand.New(rand.NewSource(3))
	insig := 0
	for trial := 0; trial < 10; trial++ {
		vals := make([]float64, len(pts))
		for i := range vals {
			vals[i] = r.NormFloat64()
		}
		res, err := GearyOpt(vals, w, Options{Perms: 199, Seed: r.Int63(), Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.C-1) > 0.35 {
			t.Errorf("random C = %v, want ≈ 1", res.C)
		}
		if res.P > 0.05 {
			insig++
		}
	}
	if insig < 8 {
		t.Errorf("random fields significant too often: %d/10 insignificant", insig)
	}
}

func TestGearyValidation(t *testing.T) {
	pts := gridPoints(3)
	w := bandW(t, pts)
	if _, err := GearyOpt([]float64{1}, w, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	constVals := make([]float64, len(pts))
	if _, err := GearyOpt(constVals, w, Options{}); err == nil {
		t.Error("constant values accepted")
	}
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = float64(i)
	}
	res, err := GearyOpt(vals, w, Options{})
	if err != nil || res.Perms != 0 {
		t.Errorf("no-perm run: %+v, %v", res, err)
	}
}

// Geary and Moran must agree in direction: C < 1 iff I > E[I] on strongly
// structured data.
func TestGearyMoranConsistency(t *testing.T) {
	pts := gridPoints(9)
	w := bandW(t, pts)
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		vals := make([]float64, len(pts))
		for i, p := range pts {
			vals[i] = p.X*2 + r.NormFloat64()*0.5
		}
		g, err := GearyOpt(vals, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := GlobalOpt(vals, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if (g.C < 1) != (m.I > m.Expected) {
			t.Errorf("Geary C=%v and Moran I=%v disagree in direction", g.C, m.I)
		}
	}
}

func TestQuadrants(t *testing.T) {
	pts := gridPoints(8)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		if p.X >= 4 {
			vals[i] = 10 // east half high, west half low
		}
	}
	q, err := Quadrants(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	// Deep east: HH. Deep west: LL.
	if q[7*8+7] != HH {
		t.Errorf("east corner = %v, want HH", q[7*8+7])
	}
	if q[0] != LL {
		t.Errorf("west corner = %v, want LL", q[0])
	}
	// Boundary high site with low neighbours on balance? Site at x=4 has
	// neighbours x=3 (low), x=5 (high): lag mixes; just verify labels valid
	// and the String method.
	for _, v := range q {
		switch v {
		case HH, LL, HL, LH:
		default:
			t.Fatalf("invalid quadrant %v", v)
		}
	}
	if HH.String() != "HH" || LL.String() != "LL" || HL.String() != "HL" || LH.String() != "LH" {
		t.Error("quadrant names wrong")
	}
	if _, err := Quadrants(vals[:3], w); err == nil {
		t.Error("length mismatch accepted")
	}
}

// A spatial outlier: one high value in a low neighbourhood must be HL, and
// its neighbours LH.
func TestQuadrantsOutlier(t *testing.T) {
	pts := gridPoints(7)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	center := 3*7 + 3
	vals[center] = 100
	q, err := Quadrants(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	if q[center] != HL {
		t.Errorf("outlier = %v, want HL", q[center])
	}
	if q[center+1] != LH {
		t.Errorf("outlier neighbour = %v, want LH", q[center+1])
	}
}

func TestCorrelogramDecays(t *testing.T) {
	// A smooth field's autocorrelation decays with distance band radius.
	r := rand.New(rand.NewSource(10))
	n := 15
	var pts []geom.Point
	var vals []float64
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
			vals = append(vals, math.Sin(float64(x)/4)+math.Cos(float64(y)/4)+r.NormFloat64()*0.1)
		}
	}
	cg, err := Correlogram(dataset.FromPoints(pts), vals, []float64{1.5, 4, 8, 15}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cg) != 4 {
		t.Fatalf("points = %d", len(cg))
	}
	if cg[0].Result.I < 0.5 {
		t.Errorf("short-range I = %v, want strong", cg[0].Result.I)
	}
	if cg[len(cg)-1].Result.I >= cg[0].Result.I {
		t.Errorf("I should decay: %v -> %v", cg[0].Result.I, cg[len(cg)-1].Result.I)
	}
}

func TestCorrelogramValidation(t *testing.T) {
	pts := gridPoints(4)
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := Correlogram(dataset.FromPoints(pts), vals[:3], []float64{1}, 0, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Correlogram(dataset.FromPoints(pts), vals, []float64{2, 2}, 0, nil); err == nil {
		t.Error("non-increasing radii accepted")
	}
	if _, err := Correlogram(dataset.FromPoints(pts), vals, []float64{0.1}, 0, nil); err == nil {
		t.Error("all-empty bands accepted")
	}
	// An empty first band is skipped, not fatal.
	cg, err := Correlogram(dataset.FromPoints(pts), vals, []float64{0.1, 1.5}, 0, nil)
	if err != nil || len(cg) != 1 || cg[0].Radius != 1.5 {
		t.Errorf("band skipping: %v, %v", cg, err)
	}
}

// TestCorrelogramReturnsErrors: only a band with no pair in range is
// skipped; what Global refuses is returned as such, not reported as
// "every distance band was empty".
func TestCorrelogramReturnsErrors(t *testing.T) {
	pts := gridPoints(2)
	radii := []float64{1.5}
	for _, tc := range []struct {
		name  string
		vals  []float64
		perms int
		want  string
	}{
		{"constant values", []float64{5, 5, 5, 5}, 0, "moran: constant values (zero variance)"},
		{"perms without a rng", []float64{1, 2, 3, 4}, 9, "moran: permutation test requires a rng"},
	} {
		if _, err := Correlogram(dataset.FromPoints(pts), tc.vals, radii, tc.perms, nil); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := Correlogram(dataset.FromPoints(pts[:2]), []float64{1, 2}, radii, 0, nil); err == nil || err.Error() != "moran: need at least 3 sites, got 2" {
		t.Errorf("n = 2: err = %v", err)
	}
	// A genuinely empty first band is still skipped, with a permutation test too.
	cg, err := Correlogram(dataset.FromPoints(pts), []float64{1, 2, 3, 4}, []float64{0.5, 1.5}, 9, rand.New(rand.NewSource(1)))
	if err != nil || len(cg) != 1 || cg[0].Radius != 1.5 || cg[0].Result.Perms != 9 {
		t.Errorf("band skipping: %v, %v", cg, err)
	}
}
