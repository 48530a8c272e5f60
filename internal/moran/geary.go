package moran

import (
	"fmt"
	"math/rand"

	"geostat/internal/dataset"
	"geostat/internal/stat"
	"geostat/internal/weights"
)

// GearyResult is a global Geary's C with its permutation test. Geary's C
// complements Moran's I: it is driven by squared differences between
// neighbours, so it is more sensitive to local-scale departures. Under no
// autocorrelation E[C] = 1; C < 1 indicates positive autocorrelation,
// C > 1 negative.
type GearyResult struct {
	C        float64
	Expected float64 // 1 under randomisation
	PermMean float64
	PermStd  float64
	Z        float64
	P        float64 // two-sided pseudo p-value
	Perms    int
}

// GearyOpt computes Geary's contiguity ratio
//
//	C = (n−1)·Σ_ij w_ij·(x_i − x_j)² / (2·S0·Σ_i (x_i − x̄)²)
//
// with a permutation test when opt.Perms > 0; permutations fan out across
// opt.Workers with results bit-identical for every worker count.
func GearyOpt(values []float64, w *weights.Matrix, opt Options) (*GearyResult, error) {
	n := len(values)
	if n != w.N {
		return nil, fmt.Errorf("moran: %d values but weight matrix over %d sites", n, w.N)
	}
	if n < 3 {
		return nil, fmt.Errorf("moran: need at least 3 sites, got %d", n)
	}
	s0 := w.S0()
	if s0 == 0 {
		return nil, fmt.Errorf("moran: weight matrix is empty")
	}
	obs, ok := gearyStatistic(values, w, s0)
	if !ok {
		return nil, fmt.Errorf("moran: constant values (zero variance)")
	}
	res := &GearyResult{C: obs, Expected: 1, Perms: opt.Perms}
	var err error
	res.PermMean, res.PermStd, res.Z, res.P, err = stat.PermutationTest(values, obs, opt, func(perm []float64) float64 {
		s, _ := gearyStatistic(perm, w, s0)
		return s
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func gearyStatistic(values []float64, w *weights.Matrix, s0 float64) (float64, bool) {
	n := len(values)
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	den := 0.0
	for _, v := range values {
		den += (v - mean) * (v - mean)
	}
	if den == 0 {
		return 0, false
	}
	num := 0.0
	for i := 0; i < n; i++ {
		xi := values[i]
		w.ForEachNeighbor(i, func(j int, wij float64) {
			d := xi - values[j]
			num += wij * d * d
		})
	}
	return float64(n-1) * num / (2 * s0 * den), true
}

// CorrelogramPoint is Moran's I evaluated with a distance-band weight
// matrix of one radius.
type CorrelogramPoint struct {
	Radius float64
	Result *Result
}

// Correlogram computes Moran's I at each distance band radius — the
// spatial correlogram showing how autocorrelation decays with scale (the
// autocorrelation analogue of the K-function's threshold sweep). Radii
// must be positive and increasing. Bands with an empty weight matrix are
// skipped; any other failure (constant values, too few sites, perms without
// a rng) is returned.
func Correlogram(d *dataset.Dataset, values []float64, radii []float64, perms int, rng *rand.Rand) ([]CorrelogramPoint, error) {
	if d.N() != len(values) {
		return nil, fmt.Errorf("moran: %d points but %d values", d.N(), len(values))
	}
	prev := 0.0
	for i, r := range radii {
		if !(r > prev) {
			return nil, fmt.Errorf("moran: radii must be positive and strictly increasing (index %d)", i)
		}
		prev = r
	}
	var out []CorrelogramPoint
	for _, r := range radii {
		w, _, err := weights.DistanceBandDataset(d, r, -1)
		if err != nil {
			return nil, err
		}
		if w.S0() == 0 {
			continue // no pair within r: skip the band
		}
		if perms > 0 && rng == nil {
			return nil, fmt.Errorf("moran: permutation test requires a rng")
		}
		var seed int64
		if rng != nil {
			seed = rng.Int63()
		}
		res, err := GlobalOpt(values, w.RowStandardize(), Options{Perms: perms, Seed: seed, Workers: -1})
		if err != nil {
			return nil, err
		}
		out = append(out, CorrelogramPoint{Radius: r, Result: res})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("moran: every distance band was empty")
	}
	return out, nil
}

// Quadrant classifies a site on the Moran scatterplot.
type Quadrant int

const (
	// HH: high value among high neighbours (hot spot core).
	HH Quadrant = iota
	// LL: low among low (cold spot core).
	LL
	// HL: high among low (spatial outlier).
	HL
	// LH: low among high (spatial outlier).
	LH
)

// String returns the quadrant label.
func (q Quadrant) String() string {
	switch q {
	case HH:
		return "HH"
	case LL:
		return "LL"
	case HL:
		return "HL"
	case LH:
		return "LH"
	}
	return fmt.Sprintf("Quadrant(%d)", int(q))
}

// Quadrants returns each site's Moran-scatterplot quadrant: the sign of
// its own deviation from the mean crossed with the sign of its spatially
// lagged deviation. Combined with Local's z-scores this is the standard
// LISA cluster map (HH/LL significant cores, HL/LH significant outliers).
func Quadrants(values []float64, w *weights.Matrix) ([]Quadrant, error) {
	n := len(values)
	if n != w.N {
		return nil, fmt.Errorf("moran: %d values but weight matrix over %d sites", n, w.N)
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	out := make([]Quadrant, n)
	for i := 0; i < n; i++ {
		zi := values[i] - mean
		lag := 0.0
		w.ForEachNeighbor(i, func(j int, wij float64) { lag += wij * (values[j] - mean) })
		switch {
		case zi >= 0 && lag >= 0:
			out[i] = HH
		case zi < 0 && lag < 0:
			out[i] = LL
		case zi >= 0:
			out[i] = HL
		default:
			out[i] = LH
		}
	}
	return out, nil
}
