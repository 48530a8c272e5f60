package kde

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/parallel"
)

// SampleBound returns the subset size m such that estimating the mean
// kernel value F(q)/n from m uniform samples (with replacement) has
// additive error at most eps·Kmax simultaneously over all numPixels pixels
// with probability at least 1−delta, by Hoeffding's inequality plus a
// union bound:
//
//	m ≥ ln(2·XY/δ) / (2·ε²)
//
// (kernel values lie in [0, Kmax]; eps is expressed as a fraction of Kmax,
// making the bound kernel- and bandwidth-independent). This is the
// "non-trivial upper bound for the subset size" of §2.2's data-sampling
// family: m does not depend on n, so the speedup grows linearly with n.
func SampleBound(numPixels int, eps, delta float64) (int, error) {
	if !(eps > 0) || eps >= 1 {
		return 0, fmt.Errorf("kde: sampling needs 0 < eps < 1, got %g", eps)
	}
	if !(delta > 0) || delta >= 1 {
		return 0, fmt.Errorf("kde: sampling needs 0 < delta < 1, got %g", delta)
	}
	if numPixels < 1 {
		numPixels = 1
	}
	m := math.Log(2*float64(numPixels)/delta) / (2 * eps * eps)
	return int(math.Ceil(m)), nil
}

// buildSampled constructs the data-sampling estimator: a uniform random
// subset sized by SampleBound(pixels, Options.Epsilon, Options.Delta),
// evaluated by the exact method Auto resolves to for the kernel, with gain
// n/m restoring the full-data magnitude. The result F̂ satisfies, with
// probability ≥ 1−δ, |F̂(q) − F(q)| ≤ ε·Kmax·n simultaneously for every
// pixel q (equivalently: the per-point mean is within ε·Kmax).
//
// If the bound size reaches n the full dataset is used and the result is
// exact.
//
// The subset is drawn from a generator seeded with Options.Seed, so given
// (columns, options) always yield the same surface.
func buildSampled(cols dataset.Columns, opt *Options) (rowComputer, float64, error) {
	m, err := SampleBound(opt.Grid.NumPixels(), opt.Epsilon, opt.Delta)
	if err != nil {
		return nil, 0, err
	}
	exact := lookup(Auto, opt.Kernel)
	n := cols.N()
	if m >= n {
		return exact.build(cols, opt)
	}
	// Sample with replacement (matches the Hoeffding analysis directly).
	rng := parallel.NewRand(opt.Seed)
	idx := make([]int, m)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	rc, _, err := exact.build(cols.Gather(idx), opt)
	return rc, float64(n) / float64(m), err
}
