package kde

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/kernel"
	"geostat/internal/parallel"
)

// Bandwidth selection — the step every hands-on KDV session starts with
// (the paper's §2.1 suggests taking b from the K-function's clustered
// scale; these are the statistical alternatives every GIS package offers).

// SilvermanBandwidth returns the 2-D rule-of-thumb bandwidth
//
//	b = σ̂ · n^{−1/6},  σ̂ = sqrt((σ_x² + σ_y²)/2)
//
// (Silverman's normal-reference rule with d=2). It is a pilot value:
// optimal under Gaussian data, a sane starting point elsewhere.
func SilvermanBandwidth(cols dataset.Columns) (float64, error) {
	n := cols.N()
	if n < 2 {
		return 0, fmt.Errorf("kde: Silverman rule needs at least 2 points, got %d", n)
	}
	var mx, my float64
	for i, x := range cols.X {
		mx += x
		my += cols.Y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var vx, vy float64
	for i, x := range cols.X {
		y := cols.Y[i]
		vx += (x - mx) * (x - mx)
		vy += (y - my) * (y - my)
	}
	vx /= float64(n - 1)
	vy /= float64(n - 1)
	sigma := math.Sqrt((vx + vy) / 2)
	if sigma == 0 {
		return 0, fmt.Errorf("kde: zero-variance point set")
	}
	return sigma * math.Pow(float64(n), -1.0/6), nil
}

// SelectBandwidthCV picks the candidate bandwidth maximising the held-out
// log-likelihood over `folds` random folds: for each fold, the density
// (normalised, fitted on the other folds) is evaluated at the held-out
// points; the winner generalises best. Requires a finite-support kernel
// (evaluation uses support scans). Candidates must be positive.
//
// The fold assignment is shuffled by a generator seeded with seed, so the
// selected bandwidth is reproducible from (points, candidates, folds, seed).
func SelectBandwidthCV(cols dataset.Columns, typ kernel.Type, candidates []float64, folds int, seed int64) (float64, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("kde: no candidate bandwidths")
	}
	if folds < 2 {
		return 0, fmt.Errorf("kde: need at least 2 folds, got %d", folds)
	}
	n := cols.N()
	if n < 2*folds {
		return 0, fmt.Errorf("kde: too few points (%d) for %d folds", n, folds)
	}
	// Validate candidates and kernel up front.
	for i, b := range candidates {
		k, err := kernel.New(typ, b)
		if err != nil {
			return 0, fmt.Errorf("kde: candidate %d: %w", i, err)
		}
		if !k.FiniteSupport() {
			return 0, fmt.Errorf("kde: SelectBandwidthCV requires a finite-support kernel, got %v", typ)
		}
	}
	// Random fold assignment.
	rng := parallel.NewRand(seed)
	fold := make([]int, n)
	for i := range fold {
		fold[i] = i % folds
	}
	rng.Shuffle(len(fold), func(i, j int) { fold[i], fold[j] = fold[j], fold[i] })

	// Log-density floor: a held-out point outside every kernel support
	// would give −Inf; floor it so one outlier doesn't veto a bandwidth,
	// while still penalising uncovered points heavily.
	const logFloor = -50.0

	best := candidates[0]
	bestScore := math.Inf(-1)
	trainX, trainY := make([]float64, 0, n), make([]float64, 0, n)
	for _, b := range candidates {
		k := kernel.MustNew(typ, b)
		w := k.NormConst()
		score := 0.0
		for f := 0; f < folds; f++ {
			trainX, trainY = trainX[:0], trainY[:0]
			for i, fi := range fold {
				if fi != f {
					trainX, trainY = append(trainX, cols.X[i]), append(trainY, cols.Y[i])
				}
			}
			idx := gridindex.NewColumns(trainX, trainY, b)
			norm := w / float64(len(trainX))
			for i, fi := range fold {
				if fi != f {
					continue
				}
				sum := 0.0
				idx.ForEachInRange(geom.Point{X: cols.X[i], Y: cols.Y[i]}, b, func(_ int, d2 float64) {
					sum += k.Eval2(d2)
				})
				if density := sum * norm; density > 0 {
					score += math.Max(math.Log(density), logFloor)
				} else {
					score += logFloor
				}
			}
		}
		if score > bestScore {
			bestScore = score
			best = b
		}
	}
	return best, nil
}
