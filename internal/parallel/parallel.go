// Package parallel is the repository's single goroutine execution engine
// (the parallel/hardware family of §2.2–§2.3 of the paper, realised for
// multicore CPUs).
//
// Every analytics package schedules its data-parallel loops through this
// package instead of hand-rolling WaitGroup shims. There is one chunk loop
// (ctx.go): workers pull the next chunk from an atomic counter, so skewed
// iteration costs (e.g. bounded Dijkstras with wildly different ball sizes
// in NKDV) rebalance instead of leaving statically-sharded workers idle,
// and they check the context between chunks, which is what lets a serving
// layer abandon a heavy raster when the client hangs up. Over it:
//
//   - ForCtx / ForRangeCtx: fn per index, or per chunk [lo, hi).
//   - ForScratchCtx: hands each worker a lazily-built reusable scratch
//     value (Dijkstra engines, permutation buffers, local histograms),
//     killing per-iteration allocation, and returns the scratches so
//     callers can merge partial results.
//   - TaskSeed / MonteCarloCtx / MonteCarloScratchCtx: deterministic
//     Monte-Carlo fan-out. Task i draws from a rand.Rand seeded by a
//     splitmix64 mix of (seed, i), so permutation tests and envelope
//     simulations are bit-identical for EVERY worker count — parallelism
//     never changes a p-value.
//   - For / ForRange / ForScratch (sugar.go): the first three for callers
//     that hold no context.
package parallel

import "runtime"

// Workers normalises a worker-count option: w < 0 means GOMAXPROCS, 0 means
// serial (1), any other value is used as-is.
func Workers(w int) int {
	switch {
	case w < 0:
		return runtime.GOMAXPROCS(0)
	case w == 0:
		return 1
	default:
		return w
	}
}

// chunkSize picks the dynamic-scheduling grain: small enough that skewed
// iterations rebalance (targeting ≥ ~32 chunks per worker), large enough to
// amortise the atomic fetch over cheap iterations.
func chunkSize(n, workers int) int {
	c := n / (workers * 32)
	if c < 1 {
		return 1
	}
	if c > 256 {
		return 256
	}
	return c
}
