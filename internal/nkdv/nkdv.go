// Package nkdv implements network kernel density visualization (§2.2 of
// the paper, Xie & Yan [96]): KDV with the Euclidean distance replaced by
// the shortest-path distance over a road network, evaluated on lixels
// (linear pixels) instead of raster pixels.
//
// Two algorithms are provided:
//
//   - Naive: for every lixel center, a bounded Dijkstra collects distances
//     to every event — O(L · (E log V + n)), the direct analogue of the
//     O(XYn) planar baseline.
//   - Forward: one bounded Dijkstra per EVENT, pushing kernel mass out to
//     every lixel within the bandwidth — O(n · (E_b log V_b + L_b)) where
//     the _b quantities are restricted to the bandwidth ball. This is the
//     event-expansion structure of the fast NKDV algorithms the paper
//     reviews ([30, 81, 96]); with n ≪ L (dense lixelisation) it is the
//     practical winner.
//
// Both produce identical values: Σ_events K(d_G(lixel center, event)).
package nkdv

import (
	"context"
	"fmt"
	"math"
	"sync"

	"geostat/internal/kernel"
	"geostat/internal/network"
	"geostat/internal/obs"
	"geostat/internal/parallel"
)

// Options configures an NKDV computation.
type Options struct {
	// Kernel is applied to shortest-path distances.
	Kernel kernel.Kernel
	// LixelLength is the target lixel size (network distance units).
	LixelLength float64
	// Workers parallelises the outer loop; 0/1 serial, <0 GOMAXPROCS.
	Workers int
	// Ctx optionally bounds the computation: workers check it between
	// chunks and the entry point returns ctx.Err() (with a nil surface)
	// when it fires. Nil means no cancellation (context.Background()).
	Ctx context.Context
}

// context returns the effective context of the computation.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) validate() error {
	if o.Kernel.Bandwidth() <= 0 {
		return fmt.Errorf("nkdv: kernel not initialised (zero bandwidth); use kernel.New")
	}
	if !(o.LixelLength > 0) {
		return fmt.Errorf("nkdv: LixelLength must be positive, got %g", o.LixelLength)
	}
	if !o.Kernel.FiniteSupport() {
		return fmt.Errorf("nkdv: infinite-support kernel %v not supported on networks (unbounded Dijkstra per event); use a finite-support kernel", o.Kernel.Type())
	}
	return nil
}

// Surface is an NKDV result: a density value per lixel.
type Surface struct {
	Lixels  []network.Lixel
	EdgeOff []int32 // lixels of edge e are Lixels[EdgeOff[e]:EdgeOff[e+1]]
	Values  []float64
}

// ArgMax returns the index of the densest lixel, or -1 if empty.
func (s *Surface) ArgMax() int {
	best := -1
	bestV := math.Inf(-1)
	for i, v := range s.Values {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// MaxAbsDiff returns the largest per-lixel difference between two surfaces
// over the same lixelisation.
func (s *Surface) MaxAbsDiff(o *Surface) (float64, error) {
	if len(s.Values) != len(o.Values) {
		return 0, fmt.Errorf("nkdv: surface sizes differ (%d vs %d)", len(s.Values), len(o.Values))
	}
	m := 0.0
	for i := range s.Values {
		if d := math.Abs(s.Values[i] - o.Values[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// Naive computes NKDV with one bounded Dijkstra per lixel center.
func Naive(g *network.Graph, events []network.Position, opt Options) (*Surface, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ctx := opt.context()
	_, lspan := obs.Trace(ctx, "nkdv.lixelize")
	lixels, edgeOff := network.Lixelize(g, opt.LixelLength)
	lspan.End()
	s := &Surface{Lixels: lixels, EdgeOff: edgeOff, Values: make([]float64, len(lixels))}
	b := opt.Kernel.Bandwidth()

	// Group events by edge for distance evaluation from a lixel's search.
	byEdge := groupByEdge(events)

	// Each lixel writes only its own value, so workers share nothing but
	// their Dijkstra engine; dynamic chunking rebalances the skew between
	// lixels in dense and sparse network regions.
	ectx, espan := obs.Trace(ctx, "nkdv.evaluate")
	defer espan.End()
	_, err := parallel.ForScratchCtx(ectx, len(lixels), opt.Workers,
		func() *network.Dijkstra { return network.NewDijkstra(g) },
		func(dij *network.Dijkstra, li int) {
			center := lixels[li].Position()
			dij.FromPosition(center, b)
			sum := 0.0
			// Every edge with a reached endpoint may hold in-range events; the
			// lixel's own edge always qualifies.
			seen := map[int32]bool{center.Edge: true}
			accumulate := func(ei int32) {
				for _, ev := range byEdge[ei] {
					d := dij.PositionDist(ev, center, true)
					if d <= b {
						sum += opt.Kernel.Eval(d)
					}
				}
			}
			accumulate(center.Edge)
			for _, u := range dij.Reached() {
				g.Neighbors(u, func(_, ei int32, _ float64) {
					if !seen[ei] {
						seen[ei] = true
						accumulate(ei)
					}
				})
			}
			s.Values[li] = sum
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// contribs is kernel mass waiting to be added to the surface: runs of
// consecutive lixels (an event reaches the surface an edge at a time) with
// one value per lixel, in the order the runs were emitted.
type contribs struct {
	runs []lixelRun
	vals []float64 // the runs' values, concatenated
}

type lixelRun struct{ first, n int32 }

// sink is where emitted contributions go: straight into the surface while
// the worker owns it, else onto a list that is applied later.
type sink struct {
	values []float64 // nil in list mode
	contribs
}

// run returns the cells to add the mass for lixels [first, first+n) into,
// each at most once. In list mode a lixel that gets none costs a +0 added
// to the surface later, which changes no bit: x + 0 is x for every x but
// −0, and the surface starts at +0 and only ever has masses added to it.
func (s *sink) run(first, n int32) []float64 {
	if s.values != nil {
		return s.values[first : first+n]
	}
	s.runs = append(s.runs, lixelRun{first, n})
	k := len(s.vals)
	s.vals = append(s.vals, make([]float64, n)...)
	return s.vals[k:]
}

// applyTo adds the runs into values in emission order.
func (c *contribs) applyTo(values []float64) {
	vals := c.vals
	for _, r := range c.runs {
		dst := values[r.first : r.first+r.n]
		for j := range dst {
			dst[j] += vals[j]
		}
		vals = vals[r.n:]
	}
}

// scatterBlock is how many consecutive events a worker expands between two
// looks at the shared state; lists are queued and recycled in this unit.
const scatterBlock = 32

// scatterOrdered is the reduction of the event-expansion algorithms:
// emit(sc, i, out) adds event i's contributions to out, and every one ends
// up in values. Footprints overlap, so workers cannot all write values;
// and float addition does not commute bit-for-bit, so they cannot sum
// private copies either — which events a copy saw depends on the schedule.
// Instead values has one owner at a time, and it only ever advances
// through the events in order:
//
//   - a worker whose next block starts at `next`, the first event not yet
//     in values, takes the surface and emits straight into it;
//   - any other worker emits its block onto a list and queues it;
//   - whoever moves `next` forward then applies the queued blocks that
//     follow on, until one is missing.
//
// Every lixel therefore receives exactly the addition sequence of the
// serial loop, and the surface is bit-identical for every worker count;
// one worker is that loop (it always owns the surface and never builds a
// list). Nothing waits on a barrier: the engine hands chunks out in
// increasing order, so the block at `next` is always being expanded by
// some worker, and the queue normally holds no more than the other
// workers' current chunks. Should that worker stall, the rest would queue
// lists without limit, so none of them returns for another chunk while
// more than a chunk per worker is queued. Lists and scratches are
// recycled, which keeps memory at a few chunks of lists per worker.
func scatterOrdered[S any](ctx context.Context, n, workers int, values []float64,
	newScratch func() S, emit func(sc S, i int, out *sink)) error {
	type block struct {
		contribs
		hi int
	}
	var (
		mu       sync.Mutex
		scratch  []S                   // idle
		lists    []contribs            // idle
		queued   = make(map[int]block) // expanded blocks by first event
		next     int                   // first event not yet in values
		owned    bool                  // a worker is writing values
		released chan struct{}         // non-nil while a worker waits for owned to drop
	)
	// begin opens a worker's block at event lo: on the surface if it can
	// have it, else on a recycled list.
	begin := func(lo int) (out sink) {
		mu.Lock()
		defer mu.Unlock()
		if !owned && next == lo {
			owned, out.values = true, values
		} else if k := len(lists) - 1; k >= 0 {
			out.contribs, lists = lists[k], lists[:k]
		}
		return out
	}
	// follow returns the queued block the surface is waiting for; without
	// one the caller stops owning the surface.
	follow := func() (block, bool) {
		b, ok := queued[next]
		if ok {
			delete(queued, next)
		} else {
			owned = false
			if released != nil {
				close(released)
				released = nil
			}
		}
		return b, ok
	}
	// end closes the block [lo, hi) that out was opened for. It returns a
	// block for the caller to apply if that made the caller the owner (or
	// left it the owner) and one follows on.
	end := func(lo, hi int, out sink) (block, bool) {
		mu.Lock()
		defer mu.Unlock()
		if out.values != nil {
			next = hi
		} else {
			queued[lo] = block{out.contribs, hi}
			if owned {
				return block{}, false
			}
			owned = true
		}
		return follow()
	}
	// applied records that the owner has added b to values.
	applied := func(b block) (block, bool) {
		mu.Lock()
		defer mu.Unlock()
		next = b.hi
		lists = append(lists, contribs{b.runs[:0], b.vals[:0]})
		return follow()
	}
	// deep reports whether more than limit blocks are queued, and if so
	// the channel to wait on before asking again.
	deep := func(limit int) (bool, <-chan struct{}) {
		mu.Lock()
		defer mu.Unlock()
		if len(queued) <= limit {
			return false, nil
		}
		if released == nil {
			released = make(chan struct{})
		}
		return true, released
	}
	// take and give recycle scratches between chunks. The idle list dies
	// with this call, where a sync.Pool would keep the scratches (Dijkstra
	// engines sized to the graph) until the second GC after it returns.
	take := func() (sc S, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if k := len(scratch) - 1; k >= 0 {
			sc, scratch, ok = scratch[k], scratch[:k], true
		}
		return sc, ok
	}
	give := func(sc S) {
		mu.Lock()
		defer mu.Unlock()
		scratch = append(scratch, sc)
	}
	nw := parallel.Workers(workers)
	return parallel.ForRangeCtx(ctx, n, workers, func(lo, hi int) {
		sc, ok := take()
		if !ok {
			sc = newScratch()
		}
		defer give(sc)
		for blo := lo; blo < hi; blo += scatterBlock {
			bhi := min(blo+scatterBlock, hi)
			out := begin(blo)
			for i := blo; i < bhi; i++ {
				emit(sc, i, &out)
			}
			for b, ok := end(blo, bhi, out); ok; b, ok = applied(b) {
				b.applyTo(values)
			}
		}
		limit := nw * ((hi - lo + scatterBlock - 1) / scatterBlock)
		for full, wait := deep(limit); full; full, wait = deep(limit) {
			<-wait
		}
	})
}

// fwdScratch is Forward's per-worker state: one Dijkstra engine and the
// dedup set of spread edges.
type fwdScratch struct {
	dij  *network.Dijkstra
	seen map[int32]bool
}

// Forward computes NKDV with one bounded Dijkstra per event, adding the
// event's kernel mass to every lixel within the bandwidth.
func Forward(g *network.Graph, events []network.Position, opt Options) (*Surface, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ctx := opt.context()
	_, lspan := obs.Trace(ctx, "nkdv.lixelize")
	lixels, edgeOff := network.Lixelize(g, opt.LixelLength)
	lspan.End()
	s := &Surface{Lixels: lixels, EdgeOff: edgeOff, Values: make([]float64, len(lixels))}
	b := opt.Kernel.Bandwidth()

	ectx, espan := obs.Trace(ctx, "nkdv.evaluate")
	defer espan.End()
	err := scatterOrdered(ectx, len(events), opt.Workers, s.Values,
		func() *fwdScratch {
			return &fwdScratch{dij: network.NewDijkstra(g), seen: make(map[int32]bool)}
		},
		func(sc *fwdScratch, i int, out *sink) {
			ev := events[i]
			sc.dij.FromPosition(ev, b)
			clear(sc.seen)
			spread := func(ei int32) {
				if sc.seen[ei] {
					return
				}
				sc.seen[ei] = true
				first := edgeOff[ei]
				for k, dst := 0, out.run(first, edgeOff[ei+1]-first); k < len(dst); k++ {
					d := sc.dij.PositionDist(lixels[int(first)+k].Position(), ev, true)
					if d <= b {
						dst[k] += opt.Kernel.Eval(d)
					}
				}
			}
			spread(ev.Edge)
			for _, u := range sc.dij.Reached() {
				g.Neighbors(u, func(_, ei int32, _ float64) { spread(ei) })
			}
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func groupByEdge(events []network.Position) map[int32][]network.Position {
	m := make(map[int32][]network.Position)
	for _, ev := range events {
		m[ev.Edge] = append(m[ev.Edge], ev)
	}
	return m
}
