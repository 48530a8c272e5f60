package parallel

import (
	"context"
	"math/rand"
)

// The context-free forms of the five loops, for callers that hold no
// context and cannot be cancelled. Each is its *Ctx counterpart under
// context.Background(), which is never cancelled, so the error is
// structurally nil and dropped. This is the only file of the engine that
// mints a context.

// For is ForCtx without cancellation.
func For(n, workers int, fn func(i int)) {
	_ = ForCtx(context.Background(), n, workers, fn)
}

// ForRange is ForRangeCtx without cancellation.
func ForRange(n, workers int, fn func(lo, hi int)) {
	_ = ForRangeCtx(context.Background(), n, workers, fn)
}

// ForScratch is ForScratchCtx without cancellation.
func ForScratch[S any](n, workers int, newScratch func() S, fn func(s S, i int)) []S {
	scratches, _ := ForScratchCtx(context.Background(), n, workers, newScratch, fn)
	return scratches
}

// MonteCarlo is MonteCarloCtx without cancellation.
func MonteCarlo(n, workers int, seed int64, fn func(rng *rand.Rand, i int)) {
	_ = MonteCarloCtx(context.Background(), n, workers, seed, fn)
}

// MonteCarloScratch is MonteCarloScratchCtx without cancellation.
func MonteCarloScratch[S any](n, workers int, seed int64, newScratch func() S, fn func(rng *rand.Rand, s S, i int)) []S {
	out, _ := MonteCarloScratchCtx(context.Background(), n, workers, seed, newScratch, fn)
	return out
}
