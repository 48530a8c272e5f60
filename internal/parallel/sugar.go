package parallel

import "context"

// The context-free forms of the three loops, for callers that hold no
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
