// Package moran implements Moran's I (Table 1 of the paper, [37, 60, 93]):
// global spatial autocorrelation of a measured attribute, with a
// permutation significance test and the local variant (LISA).
package moran

import (
	"fmt"
	"math/rand"

	"geostat/internal/parallel"
	"geostat/internal/stat"
	"geostat/internal/weights"
)

// Options configures a permutation test: the one stat.PermOptions every
// global autocorrelation statistic shares.
type Options = stat.PermOptions

// Result is a global Moran's I with its permutation test.
type Result struct {
	I        float64 // observed statistic
	Expected float64 // E[I] under randomisation = −1/(n−1)
	PermMean float64 // mean of the permutation distribution
	PermStd  float64 // standard deviation of the permutation distribution
	Z        float64 // (I − PermMean)/PermStd
	P        float64 // two-sided pseudo p-value: (r+1)/(perms+1), r = #{|I_perm−mean| >= |I−mean|}
	Perms    int
}

// GlobalOpt computes Moran's I over the weight matrix w:
//
//	I = (n/S0) · Σ_ij w_ij·(z_i − z̄)(z_j − z̄) / Σ_i (z_i − z̄)²
//
// opt.Perms > 0 adds a permutation test (values are shuffled, geometry
// fixed) seeded from opt.Seed; permutations fan out across opt.Workers with
// results bit-identical for every worker count.
func GlobalOpt(values []float64, w *weights.Matrix, opt Options) (*Result, error) {
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
	obs, ok := statistic(values, w, s0)
	if !ok {
		return nil, fmt.Errorf("moran: constant values (zero variance)")
	}
	res := &Result{I: obs, Expected: -1 / float64(n-1), Perms: opt.Perms}
	var err error
	res.PermMean, res.PermStd, res.Z, res.P, err = stat.PermutationTest(values, obs, opt, func(perm []float64) float64 {
		s, _ := statistic(perm, w, s0)
		return s
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// statistic computes I; ok=false when the values have zero variance.
func statistic(values []float64, w *weights.Matrix, s0 float64) (float64, bool) {
	n := len(values)
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		zi := values[i] - mean
		den += zi * zi
		w.ForEachNeighbor(i, func(j int, wij float64) {
			num += wij * zi * (values[j] - mean)
		})
	}
	if den == 0 {
		return 0, false
	}
	return float64(n) / s0 * num / den, true
}

// LocalResult is one site's local Moran statistic (LISA).
type LocalResult struct {
	I float64 // local Moran I_i
	Z float64 // permutation z-score (conditional permutation)
}

// LocalOpt computes local Moran's I for every site:
//
//	I_i = (z_i/m2) · Σ_j w_ij·z_j,   m2 = Σ_k z_k²/n
//
// with conditional-permutation z-scores (value i fixed, others shuffled)
// when opt.Perms > 0. Sites fan out across opt.Workers, each drawing its
// conditional permutations from an RNG derived from (opt.Seed, site), so
// the z-scores are bit-identical for every worker count.
func LocalOpt(values []float64, w *weights.Matrix, opt Options) ([]LocalResult, error) {
	n := len(values)
	if n != w.N {
		return nil, fmt.Errorf("moran: %d values but weight matrix over %d sites", n, w.N)
	}
	if n < 3 {
		return nil, fmt.Errorf("moran: need at least 3 sites, got %d", n)
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	z := make([]float64, n)
	m2 := 0.0
	for i, v := range values {
		z[i] = v - mean
		m2 += z[i] * z[i]
	}
	m2 /= float64(n)
	if m2 == 0 {
		return nil, fmt.Errorf("moran: constant values (zero variance)")
	}
	out := make([]LocalResult, n)
	lag := func(i int, zs []float64) float64 {
		s := 0.0
		w.ForEachNeighbor(i, func(j int, wij float64) { s += wij * zs[j] })
		return s
	}
	for i := 0; i < n; i++ {
		out[i].I = z[i] / m2 * lag(i, z)
	}
	if opt.Perms <= 0 {
		return out, nil
	}
	// Conditional permutation: for each site, shuffle the other z values
	// among its neighbours. Sampling neighbour values uniformly from
	// z \ {z_i} is equivalent and cheaper. Sites fan out across workers;
	// each site's draws come from its own (Seed, i)-derived RNG and only
	// out[i] is written, so any worker count gives the same z-scores.
	_, mcErr := parallel.MonteCarloScratchCtx(opt.Ctx, n, opt.Workers, opt.Seed,
		func() []float64 { return make([]float64, opt.Perms) },
		func(rng *rand.Rand, samples []float64, i int) {
			if w.Degree(i) == 0 {
				return
			}
			for p := range samples {
				s := 0.0
				w.ForEachNeighbor(i, func(_ int, wij float64) {
					// Draw a random other site.
					j := rng.Intn(n - 1)
					if j >= i {
						j++
					}
					s += wij * z[j]
				})
				samples[p] = z[i] / m2 * s
			}
			mean, std := stat.MeanStd(samples)
			if std > 0 {
				out[i].Z = (out[i].I - mean) / std
			}
		})
	if mcErr != nil {
		return nil, mcErr
	}
	return out, nil
}
