package parallel

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// cancelable returns a fresh cancellable context plus an iteration counter
// the loop bodies bump to decide when to pull the plug.
func cancelable() (context.Context, *atomic.Int64, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	return ctx, &seen, cancel
}

func TestForCtxCancelledMidRunReturnsCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, seen, cancel := cancelable()
		defer cancel()
		const n = 1 << 20
		err := ForCtx(ctx, n, workers, func(i int) {
			if seen.Add(1) == 100 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := seen.Load(); got >= n {
			t.Errorf("workers=%d: all %d iterations ran despite cancellation", workers, n)
		}
	}
}

func TestForRangeCtxCancelledMidRunReturnsCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, seen, cancel := cancelable()
		defer cancel()
		const n = 1 << 20
		err := ForRangeCtx(ctx, n, workers, func(lo, hi int) {
			if seen.Add(int64(hi-lo)) >= 100 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := seen.Load(); got >= n {
			t.Errorf("workers=%d: all %d iterations ran despite cancellation", workers, n)
		}
	}
}

func TestForScratchCtxCancelledMidRunReturnsCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, seen, cancel := cancelable()
		defer cancel()
		const n = 1 << 20
		_, err := ForScratchCtx(ctx, n, workers,
			func() int { return 0 },
			func(s, i int) {
				if seen.Add(1) == 100 {
					cancel()
				}
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := seen.Load(); got >= n {
			t.Errorf("workers=%d: all %d iterations ran despite cancellation", workers, n)
		}
	}
}

func TestMonteCarloCtxCancelledMidRunReturnsCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, seen, cancel := cancelable()
		defer cancel()
		const n = 1 << 20
		err := MonteCarloCtx(ctx, n, workers, 7, func(rng *rand.Rand, i int) {
			_ = rng.Int63()
			if seen.Add(1) == 100 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := seen.Load(); got >= n {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, n)
		}
	}
}

func TestMonteCarloScratchCtxCancelledMidRunReturnsCanceled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, seen, cancel := cancelable()
		defer cancel()
		const n = 1 << 20
		_, err := MonteCarloScratchCtx(ctx, n, workers, 7,
			func() []float64 { return make([]float64, 4) },
			func(rng *rand.Rand, s []float64, i int) {
				s[0] = rng.Float64()
				if seen.Add(1) == 100 {
					cancel()
				}
			})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := seen.Load(); got >= n {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, n)
		}
	}
}

func TestCtxVariantsCompleteWithLiveContext(t *testing.T) {
	ctx := context.Background()
	const n = 10_000
	var count atomic.Int64
	if err := ForCtx(ctx, n, 4, func(i int) { count.Add(1) }); err != nil {
		t.Fatalf("ForCtx: %v", err)
	}
	if count.Load() != n {
		t.Fatalf("ForCtx ran %d of %d iterations", count.Load(), n)
	}
	count.Store(0)
	if err := ForRangeCtx(ctx, n, 4, func(lo, hi int) { count.Add(int64(hi - lo)) }); err != nil {
		t.Fatalf("ForRangeCtx: %v", err)
	}
	if count.Load() != n {
		t.Fatalf("ForRangeCtx covered %d of %d iterations", count.Load(), n)
	}
}

// TestForCtxPreCancelledRunsNothing pins the fast path: a context that is
// already dead must not start any work.
func TestForCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int64
	err := ForCtx(ctx, 1000, 4, func(i int) { count.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Parallel workers may each start one chunk before observing the dead
	// context on some schedules; the serial path must run nothing.
	count.Store(0)
	if err := ForCtx(ctx, 1000, 1, func(i int) { count.Add(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
	if count.Load() != 0 {
		t.Errorf("serial pre-cancelled ForCtx ran %d iterations", count.Load())
	}
}

// TestForCtxDeadlineReturnsDeadlineExceeded verifies the deadline flavour
// of cancellation surfaces as context.DeadlineExceeded, which the serving
// layer maps to 503.
func TestForCtxDeadlineReturnsDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := ForCtx(ctx, 1<<20, 4, func(i int) {
		time.Sleep(50 * time.Microsecond)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMonteCarloCtxPrefixMatchesUncancelled verifies the determinism
// contract under cancellation: every task that DID run drew exactly the
// same values it would have drawn in an uncancelled run.
func TestMonteCarloCtxPrefixMatchesUncancelled(t *testing.T) {
	const n = 512
	full := make([]int64, n)
	if err := MonteCarloCtx(context.Background(), n, 1, 42, func(rng *rand.Rand, i int) { full[i] = rng.Int63() }); err != nil {
		t.Fatal(err)
	}

	got := make([]int64, n)
	ran := make([]atomic.Bool, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	err := MonteCarloCtx(ctx, n, 4, 42, func(rng *rand.Rand, i int) {
		got[i] = rng.Int63()
		ran[i].Store(true)
		if seen.Add(1) == 64 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range ran {
		if ran[i].Load() && got[i] != full[i] {
			t.Fatalf("task %d drew %d under cancellation, %d in full run", i, got[i], full[i])
		}
	}
}

// TestEntryPointsShareTheLoopContract runs the cases only some entry
// points had (n = 0, workers > n, pre-cancelled serial start, lazy scratch,
// no goroutine left behind) against all three adapters of the one chunk
// loop, through a common shape: run the loop, count iterations and
// scratches built.
func TestEntryPointsShareTheLoopContract(t *testing.T) {
	type result struct {
		iters, scratches int64
		err              error
	}
	entries := map[string]func(ctx context.Context, n, workers int) result{
		"ForCtx": func(ctx context.Context, n, workers int) result {
			var iters atomic.Int64
			err := ForCtx(ctx, n, workers, func(int) { iters.Add(1) })
			return result{iters: iters.Load(), err: err}
		},
		"ForRangeCtx": func(ctx context.Context, n, workers int) result {
			var iters atomic.Int64
			err := ForRangeCtx(ctx, n, workers, func(lo, hi int) { iters.Add(int64(hi - lo)) })
			return result{iters: iters.Load(), err: err}
		},
		"ForScratchCtx": func(ctx context.Context, n, workers int) result {
			var iters, built atomic.Int64
			scratches, err := ForScratchCtx(ctx, n, workers,
				func() int { built.Add(1); return 0 },
				func(int, int) { iters.Add(1) })
			if int64(len(scratches)) != built.Load() {
				t.Errorf("ForScratchCtx returned %d scratches but built %d", len(scratches), built.Load())
			}
			return result{iters: iters.Load(), scratches: built.Load(), err: err}
		},
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if r := run(context.Background(), 0, 4); r.iters != 0 || r.scratches != 0 || r.err != nil {
				t.Errorf("n=0: %+v, want nothing run, nothing built, nil error", r)
			}
			if r := run(context.Background(), 3, 64); r.iters != 3 || r.scratches > 3 || r.err != nil {
				t.Errorf("workers > n: %+v, want 3 iterations on at most 3 workers", r)
			}
			if r := run(dead, 1000, 1); r.iters != 0 || r.scratches != 0 || !errors.Is(r.err, context.Canceled) {
				t.Errorf("pre-cancelled serial: %+v, want nothing run, nothing built, context.Canceled", r)
			}
			if r := run(dead, 1000, 4); !errors.Is(r.err, context.Canceled) {
				t.Errorf("pre-cancelled pool: err = %v, want context.Canceled", r.err)
			}
			// Every call above has returned, so every worker must be gone.
			for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before, %d after: workers leaked", before, after)
			}
		})
	}
}
