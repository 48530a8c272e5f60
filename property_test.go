package geostat_test

import (
	"math"
	"testing"
	"testing/quick"

	"geostat"
)

// Property-based equivalence tests: for randomly drawn datasets, every
// accelerated path must agree with its naive O(n²)/O(XYn) definition —
// exactly for the integer K-function counts, within 1e-9 for the float
// surfaces (summation order differs between algorithms). testing/quick
// supplies random seeds; each seed expands deterministically into a
// dataset via geostat.NewRand, so any failure replays from the logged
// seed alone.

// quickConfig bounds the number of random datasets per property so the
// whole file stays inside the tier-1 time budget.
func quickConfig() *quick.Config {
	return &quick.Config{MaxCount: 12, Rand: geostat.NewRand(20260806)}
}

// randomDataset expands a seed into a small clustered dataset with a
// measured field (so the same datasets serve KDV, K-function, and IDW).
func randomDataset(seed int64) *geostat.Dataset {
	rng := geostat.NewRand(seed)
	n := 20 + int(rng.Int63n(60))
	box := geostat.BBox{MinX: 0, MinY: 0, MaxX: 50, MaxY: 30}
	d := geostat.GaussianClusters(rng, n, box, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 15, Y: 10}, Sigma: 4, Weight: 1},
		{Center: geostat.Point{X: 35, Y: 20}, Sigma: 6, Weight: 1},
	}, 0.3)
	return geostat.WithField(rng, d, func(p geostat.Point) float64 {
		return 5 + p.X/5 + p.Y/10
	}, 0.4)
}

func TestPropertySweepLineKDVMatchesNaive(t *testing.T) {
	grid := func(d *geostat.Dataset) geostat.PixelGrid {
		return geostat.NewPixelGrid(d.Bounds().Pad(1e-9), 40, 24)
	}
	property := func(seed int64) bool {
		d := randomDataset(seed)
		k := geostat.MustKernel(geostat.Quartic, 5)
		base := geostat.KDVOptions{Kernel: k, Grid: grid(d), Workers: 2}

		naiveOpt := base
		naiveOpt.Method = geostat.KDVNaive
		naive, err := geostat.KDVDataset(d, naiveOpt)
		if err != nil {
			t.Logf("seed %d: naive KDV failed: %v", seed, err)
			return false
		}
		for _, method := range []geostat.KDVMethod{geostat.KDVSweepLine, geostat.KDVGridCutoff} {
			opt := base
			opt.Method = method
			got, err := geostat.KDVDataset(d, opt)
			if err != nil {
				t.Logf("seed %d: %s KDV failed: %v", seed, method, err)
				return false
			}
			diff, err := got.MaxAbsDiff(naive)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if diff > 1e-9 {
				t.Logf("seed %d: %s deviates from naive by %g", seed, method, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestPropertyKFunctionIndexesMatchNaive(t *testing.T) {
	property := func(seed int64) bool {
		d := randomDataset(seed)
		rng := geostat.NewRand(seed)
		for trial := 0; trial < 4; trial++ {
			s := 0.5 + rng.Float64()*15
			want := geostat.KFunctionNaive(d, s)
			for name, got := range map[string]int{
				"grid":      geostat.KFunction(d.Points(), s),
				"kd-tree":   geostat.KFunctionKDTree(d.Points(), s),
				"ball-tree": geostat.KFunctionBallTree(d.Points(), s),
				"r-tree":    geostat.KFunctionRTree(d.Points(), s),
			} {
				if got != want {
					t.Logf("seed %d, s=%g: %s count %d != naive %d", seed, s, name, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestPropertyKFunctionCurveMatchesPointwise(t *testing.T) {
	property := func(seed int64) bool {
		d := randomDataset(seed)
		thresholds := []float64{1, 3, 6, 10, 18}
		curve, err := geostat.KFunctionCurve(d, thresholds, 3)
		if err != nil {
			t.Logf("seed %d: curve failed: %v", seed, err)
			return false
		}
		for i, s := range thresholds {
			if want := geostat.KFunctionNaive(d, s); curve[i] != want {
				t.Logf("seed %d: curve[%d]=%d != naive %d at s=%g", seed, i, curve[i], want, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestPropertyIDWIndexedPathsMatchNaive(t *testing.T) {
	property := func(seed int64) bool {
		d := randomDataset(seed)
		opt := geostat.IDWOptions{
			Grid:    geostat.NewPixelGrid(d.Bounds().Pad(1e-9), 24, 16),
			Power:   2,
			Workers: 2,
		}
		naive, err := geostat.IDW(d, opt)
		if err != nil {
			t.Logf("seed %d: naive IDW failed: %v", seed, err)
			return false
		}
		// kNN with k = n sees every sample, so it must reproduce the naive
		// surface up to float reordering.
		knn, err := geostat.IDWKNN(d, opt, d.N())
		if err != nil {
			t.Logf("seed %d: kNN IDW failed: %v", seed, err)
			return false
		}
		// A radius beyond the bbox diagonal likewise covers every sample.
		b := d.Bounds()
		diag := math.Hypot(b.Width(), b.Height())
		rad, err := geostat.IDWRadius(d, opt, diag+1)
		if err != nil {
			t.Logf("seed %d: radius IDW failed: %v", seed, err)
			return false
		}
		for name, g := range map[string]*geostat.Heatmap{"knn": knn, "radius": rad} {
			diff, err := g.MaxAbsDiff(naive)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if diff > 1e-9 {
				t.Logf("seed %d: %s deviates from naive by %g", seed, name, diff)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, quickConfig()); err != nil {
		t.Error(err)
	}
}
