package parallel

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"geostat/internal/obs"
)

// This file is the engine: one chunk loop (loop) and the context-aware
// entry points, which are adapters that tell it what a worker does with a
// claimed chunk. The context-free forms in sugar.go call these with
// context.Background().
//
// Cancellation contract:
//
//   - Workers check ctx between chunks, never mid-chunk: an fn that has
//     started always runs to completion, so callers never observe a
//     half-written iteration. The check granularity is chunkSize (≤ 256
//     iterations), bounding the latency between cancellation and return.
//   - On cancellation the *Ctx functions drain immediately — remaining
//     chunks are abandoned, every in-flight chunk finishes, all worker
//     goroutines exit, and ctx.Err() (context.Canceled or
//     context.DeadlineExceeded) is returned. They never deadlock and never
//     leak a goroutine.
//   - A non-nil error means the result is PARTIAL: callers must discard
//     any output buffers fn wrote into (and any scratches returned).
//   - A nil ctx is treated as context.Background(), so library code can
//     thread an optional ctx without nil checks.

// bg normalises a possibly-nil context.
func bg(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// loop runs [0, n) in chunks of chunkSize across at most `workers`
// goroutines (see Workers) under one obs span called name. begin is called
// once by each worker that claims a chunk, on that worker, before its first
// chunk — this is where per-worker scratch is built lazily — and returns
// what the worker does with every chunk [lo, hi) it claims. One worker (or
// n ≤ 1) runs on the calling goroutine; more pull chunks from an atomic
// counter, so skewed iteration costs rebalance.
//
// The span is per invocation, never per chunk: when no trace is active in
// ctx it costs a single context-value lookup and a nil no-op span, and the
// chunk loops allocate nothing.
func loop(ctx context.Context, name string, n, workers int, begin func() func(lo, hi int)) error {
	nw := min(Workers(workers), n)
	if nw < 1 {
		nw = 1
	}
	chunk := chunkSize(n, nw)
	ctx, span := obs.Trace(bg(ctx), name)
	if span != nil {
		span.SetAttrInt("n", int64(n))
		span.SetAttrInt("workers", int64(nw))
		span.SetAttrInt("chunk", int64(chunk))
	}
	defer span.End()
	if nw == 1 {
		var body func(lo, hi int)
		for lo := 0; lo < n; lo += chunk {
			if err := ctx.Err(); err != nil {
				return err
			}
			if body == nil {
				body = begin()
			}
			body(lo, min(lo+chunk, n))
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body func(lo, hi int)
			for ctx.Err() == nil {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				if body == nil {
					body = begin()
				}
				body(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// ForCtx runs fn(i) for every i in [0, n) unless ctx is cancelled first, in
// which case remaining chunks are abandoned and ctx.Err() is returned (see
// the file-level contract). Iterations must be independent; fn is called
// concurrently from multiple goroutines.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	}
	return loop(ctx, "parallel.for", n, workers, func() func(lo, hi int) { return body })
}

// ForRangeCtx is ForCtx with the chunk boundaries exposed: fn(lo, hi)
// processes the half-open range [lo, hi). Use it for tight per-element
// loops (pixel fills, histogram scans) where a closure call per element
// would dominate.
func ForRangeCtx(ctx context.Context, n, workers int, fn func(lo, hi int)) error {
	return loop(ctx, "parallel.for_range", n, workers, func() func(lo, hi int) { return fn })
}

// ForScratchCtx is ForCtx handing each worker a scratch value S built by
// newScratch when the worker claims its first chunk. It returns the
// scratches that were created (at most min(workers, n), fewer if some
// workers never won a chunk) so callers can merge per-worker partial
// results; on a non-nil error they hold partial state and must be
// discarded.
//
// The order of the returned scratches, and which iterations each one saw,
// depend on the schedule. A merge is therefore worker-count-invariant only
// if it is order-insensitive: integer sums, min/max, set union. Float
// partial sums are NOT — a reduction whose result must be bit-identical
// for every worker count has to add each output cell's contributions in
// iteration order (see DESIGN.md, "ordered reduction").
func ForScratchCtx[S any](ctx context.Context, n, workers int, newScratch func() S, fn func(s S, i int)) ([]S, error) {
	var mu sync.Mutex
	var scratches []S
	err := loop(ctx, "parallel.for_scratch", n, workers, func() func(lo, hi int) {
		s := newScratch()
		mu.Lock()
		scratches = append(scratches, s)
		mu.Unlock()
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fn(s, i)
			}
		}
	})
	return scratches, err
}

// MonteCarloCtx runs fn(rng, i) for every task i in [0, n), where rng is
// deterministically seeded from (seed, i), so results indexed by i (sample
// slots, envelope min/max merges, integer histograms) are bit-identical
// for every worker count. Each worker reuses a single generator, re-seeded
// per task, so the fan-out does not allocate per iteration. Under
// cancellation the tasks that ran are bit-identical to an uncancelled run,
// but an unspecified subset never ran, so per-task outputs must be
// discarded.
func MonteCarloCtx(ctx context.Context, n, workers int, seed int64, fn func(rng *rand.Rand, i int)) error {
	ctx, span := obs.Trace(bg(ctx), "parallel.monte_carlo")
	defer span.End()
	_, err := ForScratchCtx(ctx, n, workers,
		func() *rand.Rand { return rand.New(rand.NewSource(1)) },
		func(rng *rand.Rand, i int) {
			rng.Seed(TaskSeed(seed, i))
			fn(rng, i)
		})
	return err
}

// mcScratch pairs the per-worker generator with a caller scratch value.
type mcScratch[S any] struct {
	rng *rand.Rand
	s   S
}

// MonteCarloScratchCtx is MonteCarloCtx with an additional per-worker
// scratch value (permutation buffers, Dijkstra engines, local histograms)
// built lazily by newScratch. The scratches created are returned for
// merging.
func MonteCarloScratchCtx[S any](ctx context.Context, n, workers int, seed int64, newScratch func() S, fn func(rng *rand.Rand, s S, i int)) ([]S, error) {
	ctx, span := obs.Trace(bg(ctx), "parallel.monte_carlo")
	defer span.End()
	ms, err := ForScratchCtx(ctx, n, workers,
		func() *mcScratch[S] {
			return &mcScratch[S]{rng: rand.New(rand.NewSource(1)), s: newScratch()}
		},
		func(m *mcScratch[S], i int) {
			m.rng.Seed(TaskSeed(seed, i))
			fn(m.rng, m.s, i)
		})
	out := make([]S, len(ms))
	for i, m := range ms {
		out[i] = m.s
	}
	return out, err
}
