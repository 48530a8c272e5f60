package moran

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/weights"
)

func gridPoints(n int) []geom.Point {
	pts := make([]geom.Point, 0, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			pts = append(pts, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	return pts
}

func bandW(t *testing.T, pts []geom.Point) *weights.Matrix {
	t.Helper()
	w, _, err := weights.DistanceBandDataset(dataset.FromPoints(pts), 1.0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return w.RowStandardize()
}

func TestValidation(t *testing.T) {
	pts := gridPoints(3)
	w := bandW(t, pts)
	if _, err := GlobalOpt([]float64{1, 2}, w, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	constVals := make([]float64, len(pts))
	if _, err := GlobalOpt(constVals, w, Options{}); err == nil {
		t.Error("constant values accepted")
	}
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := LocalOpt(vals[:4], w, Options{}); err == nil {
		t.Error("Local length mismatch accepted")
	}
	if _, err := LocalOpt(constVals, w, Options{}); err == nil {
		t.Error("Local constant values accepted")
	}
}

// A smooth gradient is strongly positively autocorrelated.
func TestGlobalPositiveOnGradient(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.X + p.Y
	}
	res, err := GlobalOpt(vals, w, Options{Perms: 199, Seed: rand.New(rand.NewSource(1)).Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.I < 0.7 {
		t.Errorf("gradient I = %v, want strongly positive", res.I)
	}
	if res.Z < 3 {
		t.Errorf("gradient z = %v, want large", res.Z)
	}
	if res.P > 0.02 {
		t.Errorf("gradient p = %v, want significant", res.P)
	}
	if math.Abs(res.Expected-(-1.0/99)) > 1e-12 {
		t.Errorf("Expected = %v", res.Expected)
	}
}

// A checkerboard is strongly negatively autocorrelated.
func TestGlobalNegativeOnCheckerboard(t *testing.T) {
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
	res, err := GlobalOpt(vals, w, Options{Perms: 199, Seed: rand.New(rand.NewSource(2)).Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.I > -0.9 {
		t.Errorf("checkerboard I = %v, want ≈ −1", res.I)
	}
	if res.Z > -3 {
		t.Errorf("checkerboard z = %v, want very negative", res.Z)
	}
}

// Random values: I near E[I], insignificant.
func TestGlobalRandomIsInsignificant(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	r := rand.New(rand.NewSource(3))
	insignificant := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		vals := make([]float64, len(pts))
		for i := range vals {
			vals[i] = r.NormFloat64()
		}
		res, err := GlobalOpt(vals, w, Options{Perms: 199, Seed: r.Int63(), Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.P > 0.05 {
			insignificant++
		}
	}
	if insignificant < trials-2 {
		t.Errorf("random fields significant too often: %d/%d insignificant", insignificant, trials)
	}
}

func TestGlobalWithoutPerms(t *testing.T) {
	pts := gridPoints(5)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.X
	}
	res, err := GlobalOpt(vals, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Z != 0 || res.P != 0 || res.Perms != 0 {
		t.Errorf("no-perm fields populated: %+v", res)
	}
}

// Local Moran: sites inside a high-value blob get positive I_i; sites on a
// sharp high/low boundary get negative I_i.
func TestLocalHotspot(t *testing.T) {
	pts := gridPoints(12)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		if p.X >= 4 && p.X < 8 && p.Y >= 4 && p.Y < 8 {
			vals[i] = 10
		}
	}
	res, err := LocalOpt(vals, w, Options{Perms: 99, Seed: rand.New(rand.NewSource(4)).Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Center of the blob (6,6) = index 6*12+6.
	center := res[6*12+6]
	if center.I <= 0 {
		t.Errorf("blob center I_i = %v, want positive", center.I)
	}
	if center.Z < 2 {
		t.Errorf("blob center z = %v, want significant", center.Z)
	}
	// A far-away background site: near zero.
	bg := res[0]
	if math.Abs(bg.I) > math.Abs(center.I)/2 {
		t.Errorf("background I_i = %v vs center %v", bg.I, center.I)
	}
}

// Property: the weighted mean of local Moran values equals global I (for
// row-standardised weights, Σ I_i / n relates to I by Σ I_i = n·I·(S0/n)).
func TestLocalSumMatchesGlobal(t *testing.T) {
	pts := gridPoints(8)
	w := bandW(t, pts)
	r := rand.New(rand.NewSource(5))
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = r.NormFloat64() + pts[i].X/4
	}
	g, err := GlobalOpt(vals, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := LocalOpt(vals, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range local {
		sum += l.I
	}
	// Σ I_i = (Σ_i z_i Σ_j w_ij z_j)/m2 and I = n/S0 · (same)/Σz² →
	// Σ I_i = I · S0 (with m2 = Σz²/n).
	if math.Abs(sum-g.I*w.S0()) > 1e-9 {
		t.Errorf("Σ local = %v, want I·S0 = %v", sum, g.I*w.S0())
	}
}
