package stat

import (
	"context"
	"math"
	"math/rand"

	"geostat/internal/parallel"
)

// PermOptions configures a permutation test. Permutation p shuffles its
// own copy of the values with an RNG derived deterministically from
// (Seed, p), so results are bit-identical for every Workers value.
type PermOptions struct {
	// Perms is the number of permutations; 0 skips the test.
	Perms int
	// Seed drives the permutation RNGs.
	Seed int64
	// Workers fans permutations out across goroutines (0/1 serial, <0
	// GOMAXPROCS).
	Workers int
	// Ctx optionally bounds the permutation test: workers check it between
	// task chunks and the entry point returns ctx.Err() (with a nil
	// result) when it fires. Nil means no cancellation.
	Ctx context.Context
}

// PermutationSamples is the one permutation sampler: it evaluates
// statistic on opt.Perms random permutations of values (geometry fixed,
// values shuffled) and returns the statistics in permutation order. Each
// permutation copies values into a per-worker buffer and shuffles it with
// its own RNG derived from (opt.Seed, p) — no cross-permutation state, so
// any worker count gives the same samples. opt.Perms <= 0 draws none.
func PermutationSamples(values []float64, opt PermOptions, statistic func(perm []float64) float64) ([]float64, error) {
	n := len(values)
	samples := make([]float64, max(opt.Perms, 0))
	if _, err := parallel.MonteCarloScratchCtx(opt.Ctx, opt.Perms, opt.Workers, opt.Seed,
		func() []float64 { return make([]float64, n) },
		func(rng *rand.Rand, perm []float64, i int) {
			copy(perm, values)
			rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			samples[i] = statistic(perm)
		}); err != nil {
		return nil, err
	}
	return samples, nil
}

// PermutationTest is the one permutation-test driver behind Moran's I,
// Geary's C and General G. It draws opt.Perms samples with
// PermutationSamples and reduces the distribution to its mean and standard
// deviation, the z-score of the observed statistic obs, and the two-sided
// pseudo p-value (r+1)/(perms+1), r = #{|s − mean| >= |obs − mean|}.
// opt.Perms <= 0 skips the test and returns zeros.
func PermutationTest(values []float64, obs float64, opt PermOptions, statistic func(perm []float64) float64) (mean, std, z, p float64, err error) {
	if opt.Perms <= 0 {
		return 0, 0, 0, 0, nil
	}
	samples, err := PermutationSamples(values, opt, statistic)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	mean, std = MeanStd(samples)
	if std > 0 {
		z = (obs - mean) / std
	}
	extreme := 0
	for _, s := range samples {
		if math.Abs(s-mean) >= math.Abs(obs-mean) {
			extreme++
		}
	}
	return mean, std, z, float64(extreme+1) / float64(len(samples)+1), nil
}
