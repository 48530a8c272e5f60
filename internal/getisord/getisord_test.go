package getisord

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
	return w
}

func TestValidation(t *testing.T) {
	pts := gridPoints(3)
	w := bandW(t, pts)
	if _, err := GeneralGOpt([]float64{1, 2}, w, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	neg := make([]float64, len(pts))
	neg[0] = -1
	if _, err := GeneralGOpt(neg, w, Options{}); err == nil {
		t.Error("negative values accepted")
	}
	zeros := make([]float64, len(pts))
	if _, err := GeneralGOpt(zeros, w, Options{}); err == nil {
		t.Error("all-zero values accepted")
	}
	ok := make([]float64, len(pts))
	for i := range ok {
		ok[i] = 1
	}
	if _, err := LocalGStar(ok[:2], w); err == nil {
		t.Error("LocalGStar length mismatch accepted")
	}
	if _, err := LocalGStar(ok, w); err == nil {
		t.Error("constant values accepted by LocalGStar")
	}
}

// High values concentrated together → G above its permutation mean.
func TestGeneralGDetectsHighValueClustering(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		if p.X < 3 && p.Y < 3 {
			vals[i] = 10
		} else {
			vals[i] = 1
		}
	}
	res, err := GeneralGOpt(vals, w, Options{Perms: 199, Seed: 1, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Z < 2 {
		t.Errorf("clustered highs z = %v, want > 2", res.Z)
	}
	if res.P > 0.05 {
		t.Errorf("clustered highs p = %v", res.P)
	}
	if res.G <= res.PermMean {
		t.Errorf("G = %v not above permutation mean %v", res.G, res.PermMean)
	}
}

// Random values → insignificant G.
func TestGeneralGRandomInsignificant(t *testing.T) {
	pts := gridPoints(10)
	w := bandW(t, pts)
	r := rand.New(rand.NewSource(2))
	insig := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		vals := make([]float64, len(pts))
		for i := range vals {
			vals[i] = r.Float64() * 10
		}
		res, err := GeneralGOpt(vals, w, Options{Perms: 199, Seed: int64(trial), Workers: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.P > 0.05 {
			insig++
		}
	}
	if insig < trials-2 {
		t.Errorf("random fields significant too often: %d/%d insignificant", insig, trials)
	}
}

func TestGeneralGExpected(t *testing.T) {
	pts := gridPoints(5)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	res, err := GeneralGOpt(vals, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(pts))
	want := w.S0() / (n * (n - 1))
	if math.Abs(res.Expected-want) > 1e-12 {
		t.Errorf("Expected = %v, want %v", res.Expected, want)
	}
}

// Gi*: hot inside a high blob, cold inside a low pocket, near zero in the
// flat background.
func TestLocalGStarHotCold(t *testing.T) {
	pts := gridPoints(12)
	w := bandW(t, pts)
	vals := make([]float64, len(pts))
	for i, p := range pts {
		switch {
		case p.X >= 1 && p.X <= 3 && p.Y >= 1 && p.Y <= 3:
			vals[i] = 20 // hot blob
		case p.X >= 8 && p.X <= 10 && p.Y >= 8 && p.Y <= 10:
			vals[i] = 0 // cold pocket
		default:
			vals[i] = 10
		}
	}
	z, err := LocalGStar(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	hot := z[2*12+2]
	cold := z[9*12+9]
	if hot < 1.96 {
		t.Errorf("hot-spot z = %v, want >= 1.96", hot)
	}
	if cold > -1.96 {
		t.Errorf("cold-spot z = %v, want <= −1.96", cold)
	}
	// Background far from both: modest |z|.
	bg := z[6*12+0]
	if math.Abs(bg) > math.Abs(hot) {
		t.Errorf("background |z| = %v exceeds hot-spot %v", bg, hot)
	}
}

// Property: Gi* z-scores have mean ≈ 0 over all sites for random data.
func TestLocalGStarCentered(t *testing.T) {
	pts := gridPoints(15)
	w := bandW(t, pts)
	r := rand.New(rand.NewSource(3))
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = r.Float64() * 100
	}
	z, err := LocalGStar(vals, w)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range z {
		mean += v
	}
	mean /= float64(len(z))
	if math.Abs(mean) > 0.3 {
		t.Errorf("mean Gi* = %v, want ≈ 0", mean)
	}
}
