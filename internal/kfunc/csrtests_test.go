package kfunc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"geostat/internal/dataset"
	"geostat/internal/geom"
)

func cols(pts []geom.Point) dataset.Columns { return dataset.MakeColumns(pts) }

func TestQuadratTestRegimes(t *testing.T) {
	const alpha = 0.01
	cl, err := QuadratTest(cols(clustered(30, 1000)), box, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Regime(alpha) != Clustered {
		t.Errorf("clustered data: VMR=%v p=%v regime=%v", cl.VMR, cl.P, cl.Regime(alpha))
	}
	if cl.VMR <= 1 {
		t.Errorf("clustered VMR = %v, want > 1", cl.VMR)
	}

	// CSR should usually read random; check over several seeds.
	randomOK := 0
	for seed := int64(31); seed < 41; seed++ {
		r, err := QuadratTest(cols(csr(seed, 1000)), box, 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Regime(alpha) == Random {
			randomOK++
		}
	}
	if randomOK < 8 {
		t.Errorf("CSR read random only %d/10 times", randomOK)
	}

	disp := dataset.Dispersed(rand.New(rand.NewSource(42)), 1000, box, 2.5)
	dr, err := QuadratTest(disp.Columns(), box, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dr.VMR >= 1 {
		t.Errorf("dispersed VMR = %v, want < 1", dr.VMR)
	}
	if dr.Regime(alpha) != Dispersed {
		t.Errorf("dispersed regime = %v (p=%v)", dr.Regime(alpha), dr.P)
	}
}

func TestQuadratTestValidation(t *testing.T) {
	pts := cols(csr(1, 100))
	if _, err := QuadratTest(pts, box, 0, 5); err == nil {
		t.Error("0 columns accepted")
	}
	if _, err := QuadratTest(pts, box, 20, 20); err == nil {
		t.Error("too many quadrats accepted")
	}
	if _, err := QuadratTest(pts, geom.EmptyBBox(), 2, 2); err == nil {
		t.Error("empty window accepted")
	}
	if r, err := QuadratTest(pts, box, 4, 4); err != nil || r.DF != 15 || r.Quadrats != 16 {
		t.Errorf("shape: %+v, %v", r, err)
	}
}

// A point outside the window has no quadrat and no share of its area:
// both screens refuse it rather than clamp it into a border quadrat or
// count it in the intensity. The boundary itself is inside.
func TestCSRTestsRejectPointsOutsideWindow(t *testing.T) {
	pts := csr(2, 100)
	edge := cols(append(pts[:len(pts):len(pts)], geom.Point{X: box.MaxX, Y: box.MinY}))
	if _, err := QuadratTest(edge, box, 4, 4); err != nil {
		t.Errorf("quadrat: point on the boundary rejected: %v", err)
	}
	if _, err := ClarkEvans(edge, box); err != nil {
		t.Errorf("Clark-Evans: point on the boundary rejected: %v", err)
	}
	out := cols(append(pts[:len(pts):len(pts)], geom.Point{X: 50, Y: box.MaxY + 1}))
	want := "point 100 (50, 101) lies outside the window"
	if _, err := QuadratTest(out, box, 4, 4); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("quadrat: err = %v, want %q", err, want)
	}
	if _, err := ClarkEvans(out, box); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Clark-Evans: err = %v, want %q", err, want)
	}
}

func TestClarkEvansRegimes(t *testing.T) {
	const alpha = 0.01
	ce, err := ClarkEvans(cols(clustered(50, 1000)), box)
	if err != nil {
		t.Fatal(err)
	}
	if ce.R >= 1 || ce.Regime(alpha) != Clustered {
		t.Errorf("clustered: R=%v z=%v regime=%v", ce.R, ce.Z, ce.Regime(alpha))
	}

	disp := dataset.Dispersed(rand.New(rand.NewSource(51)), 800, box, 3)
	ce, err = ClarkEvans(disp.Columns(), box)
	if err != nil {
		t.Fatal(err)
	}
	if ce.R <= 1 || ce.Regime(alpha) != Dispersed {
		t.Errorf("dispersed: R=%v regime=%v", ce.R, ce.Regime(alpha))
	}

	// CSR: R near 1 (border bias pushes R slightly up without correction).
	ce, err = ClarkEvans(cols(csr(52, 3000)), box)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ce.R-1) > 0.08 {
		t.Errorf("CSR R = %v, want ≈ 1", ce.R)
	}
}

func TestClarkEvansValidation(t *testing.T) {
	if _, err := ClarkEvans(cols(csr(1, 2)), box); err == nil {
		t.Error("2 points accepted")
	}
	if _, err := ClarkEvans(cols(csr(1, 10)), geom.EmptyBBox()); err == nil {
		t.Error("empty window accepted")
	}
}

// The closed-form tests and the Monte-Carlo K-plot must agree on clearly
// clustered data.
func TestCSRTestsAgreeWithKPlot(t *testing.T) {
	pts := clustered(53, 800)
	rng := rand.New(rand.NewSource(53))
	plot, err := MakePlot(pts, PlotOptions{
		Thresholds:  []float64{3, 6},
		Simulations: 19,
		Window:      box,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := QuadratTest(cols(pts), box, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := ClarkEvans(cols(pts), box)
	if err != nil {
		t.Fatal(err)
	}
	if plot.RegimeAt(0) != Clustered || q.Regime(0.05) != Clustered || ce.Regime(0.05) != Clustered {
		t.Errorf("verdicts disagree: Kplot=%v quadrat=%v clarkEvans=%v",
			plot.RegimeAt(0), q.Regime(0.05), ce.Regime(0.05))
	}
}

func TestLTransform(t *testing.T) {
	// CSR: centred L stays near 0 and inside the envelope transform.
	pts := csr(54, 2000)
	rng := rand.New(rand.NewSource(54))
	plot, err := MakePlot(pts, PlotOptions{
		Thresholds:  []float64{2, 5, 10},
		Simulations: 19,
		Window:      box,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	l, lo, hi := plot.LTransform(len(pts), box.Area())
	for i := range l {
		if lo[i] > hi[i] {
			t.Fatalf("L envelope inverted at %d", i)
		}
		if math.Abs(l[i]) > 1 {
			t.Errorf("CSR centred L(%v) = %v, want ≈ 0", plot.S[i], l[i])
		}
	}
	// Clustered: centred L well above 0.
	plotC, err := MakePlot(clustered(55, 1000), PlotOptions{
		Thresholds:  []float64{2, 5},
		Simulations: 9,
		Window:      box,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	lc, _, _ := plotC.LTransform(1000, box.Area())
	if lc[0] < 1 {
		t.Errorf("clustered centred L = %v, want ≫ 0", lc[0])
	}
}
