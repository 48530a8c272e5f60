// Package getisord implements the Getis-Ord statistics (Table 1 of the
// paper, [17, 59, 62]): the global General G (concentration of high values)
// with a permutation significance test, and the local Gi* hot/cold-spot
// statistic with its textbook z-score.
package getisord

import (
	"fmt"
	"math"

	"geostat/internal/stat"
	"geostat/internal/weights"
)

// Options configures the General G permutation test: the one
// stat.PermOptions every global autocorrelation statistic shares.
type Options = stat.PermOptions

// GeneralGResult is the global General G with its permutation test.
type GeneralGResult struct {
	G        float64 // observed statistic
	Expected float64 // E[G] = S0/(n(n−1)) for binary weights
	PermMean float64
	PermStd  float64
	Z        float64
	P        float64 // two-sided pseudo p-value
	Perms    int
}

// GeneralGOpt computes Getis-Ord General G over the weight matrix:
//
//	G = Σ_ij w_ij·x_i·x_j / Σ_{i≠j} x_i·x_j
//
// Values must be non-negative (the statistic is defined for positive
// attributes). opt.Perms > 0 adds a permutation test whose shuffles are
// derived deterministically from opt.Seed; permutations fan out across
// opt.Workers with results bit-identical for every worker count.
func GeneralGOpt(values []float64, w *weights.Matrix, opt Options) (*GeneralGResult, error) {
	n := len(values)
	if n != w.N {
		return nil, fmt.Errorf("getisord: %d values but weight matrix over %d sites", n, w.N)
	}
	if n < 3 {
		return nil, fmt.Errorf("getisord: need at least 3 sites, got %d", n)
	}
	for i, v := range values {
		if v < 0 {
			return nil, fmt.Errorf("getisord: General G requires non-negative values (index %d is %g)", i, v)
		}
	}
	// Denominator Σ_{i≠j} x_i x_j = (Σx)² − Σx² is permutation-invariant.
	sum, sum2 := 0.0, 0.0
	for _, v := range values {
		sum += v
		sum2 += v * v
	}
	den := sum*sum - sum2
	if den <= 0 {
		return nil, fmt.Errorf("getisord: degenerate values (all zero or a single nonzero)")
	}
	obs := gNumerator(values, w) / den
	res := &GeneralGResult{
		G:        obs,
		Expected: w.S0() / (float64(n) * float64(n-1)),
		Perms:    opt.Perms,
	}
	var err error
	res.PermMean, res.PermStd, res.Z, res.P, err = stat.PermutationTest(values, obs, opt, func(perm []float64) float64 {
		return gNumerator(perm, w) / den
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func gNumerator(values []float64, w *weights.Matrix) float64 {
	num := 0.0
	for i := 0; i < w.N; i++ {
		xi := values[i]
		if xi == 0 {
			continue
		}
		w.ForEachNeighbor(i, func(j int, wij float64) {
			num += wij * xi * values[j]
		})
	}
	return num
}

// LocalGStar computes the Gi* statistic for every site — the hot-spot
// z-score used by ArcGIS's "Hot Spot Analysis" tool:
//
//	Gi* = [Σ_j w_ij·x_j − x̄·W_i] / (S·sqrt[(n·Σ_j w_ij² − W_i²)/(n−1)])
//
// where the self-neighbour (w_ii = 1) is included per the Gi* definition,
// W_i = Σ_j w_ij, x̄ and S are the global mean and standard deviation.
// The result is directly interpretable as a standard normal z-score:
// ≥ +1.96 hot at 5%, ≤ −1.96 cold.
func LocalGStar(values []float64, w *weights.Matrix) ([]float64, error) {
	n := len(values)
	if n != w.N {
		return nil, fmt.Errorf("getisord: %d values but weight matrix over %d sites", n, w.N)
	}
	if n < 3 {
		return nil, fmt.Errorf("getisord: need at least 3 sites, got %d", n)
	}
	mean, sd := stat.MeanStd(values)
	if sd == 0 {
		return nil, fmt.Errorf("getisord: constant values (zero variance)")
	}
	out := make([]float64, n)
	nf := float64(n)
	for i := 0; i < n; i++ {
		// Include self with weight 1 (the * in Gi*).
		lag := values[i]
		wi := 1.0
		w2 := 1.0
		w.ForEachNeighbor(i, func(j int, wij float64) {
			lag += wij * values[j]
			wi += wij
			w2 += wij * wij
		})
		den := sd * math.Sqrt((nf*w2-wi*wi)/(nf-1))
		if den == 0 {
			continue
		}
		out[i] = (lag - mean*wi) / den
	}
	return out, nil
}
