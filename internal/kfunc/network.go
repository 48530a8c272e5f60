package kfunc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"geostat/internal/network"
	"geostat/internal/parallel"
)

// Network K-function (§2.3 of the paper, Okabe & Yamada [74]): Equation 2
// with the Euclidean distance replaced by the shortest-path distance
// between event positions on a road network.
//
// The naive method runs one full Dijkstra per ordered pair source; the
// shared method runs ONE bounded Dijkstra per event (radius s_max) and
// histograms every co-located event distance, yielding all D thresholds
// simultaneously — the structure of the fast algorithms in [33, 81].

// NetworkNaive computes the network K-function at a single threshold by
// running an unbounded Dijkstra from every event: O(n·(E log V + n)).
func NetworkNaive(g *network.Graph, events []network.Position, s float64) int {
	dij := network.NewDijkstra(g)
	count := 0
	for i, src := range events {
		dij.FromPosition(src, math.Inf(1))
		for j, dst := range events {
			if i == j {
				continue
			}
			if dij.PositionDist(dst, src, true) <= s {
				count++
			}
		}
	}
	return count
}

// netCurveScratch is the per-worker state of a parallel NetworkCurve: one
// Dijkstra engine, a local histogram, and the dedup set of visited edges.
type netCurveScratch struct {
	dij      *network.Dijkstra
	hist     []int64
	seenEdge map[int32]bool
}

// NetworkCurve computes the network K-function at every threshold
// (ascending) with one bounded Dijkstra per event. Workers fans events out
// across goroutines (0/1 serial, <0 GOMAXPROCS), each with its own
// Dijkstra engine; dynamic chunking rebalances the skew between events in
// dense and sparse network regions.
func NetworkCurve(g *network.Graph, events []network.Position, thresholds []float64, workers int) ([]int, error) {
	if err := checkThresholds(thresholds); err != nil {
		return nil, err
	}
	d := len(thresholds)
	out := make([]int, d)
	if len(events) < 2 {
		return out, nil
	}
	sMax := thresholds[d-1]

	// Group events by edge so each source only inspects edges its bounded
	// search reached.
	byEdge := make(map[int32][]int32)
	for i, ev := range events {
		byEdge[ev.Edge] = append(byEdge[ev.Edge], int32(i))
	}

	partials := parallel.ForScratch(len(events), workers,
		func() *netCurveScratch {
			return &netCurveScratch{
				dij:      network.NewDijkstra(g),
				hist:     make([]int64, d),
				seenEdge: make(map[int32]bool),
			}
		},
		func(s *netCurveScratch, i int) {
			src := events[i]
			s.dij.FromPosition(src, sMax)
			// Candidate edges: those incident to a reached node, plus the
			// source's own edge (reachable along itself).
			clear(s.seenEdge)
			consider := func(ei int32) {
				if s.seenEdge[ei] {
					return
				}
				s.seenEdge[ei] = true
				for _, j := range byEdge[ei] {
					if int(j) == i {
						continue
					}
					dist := s.dij.PositionDist(events[j], src, true)
					if dist <= sMax {
						bin := sort.SearchFloat64s(thresholds, dist)
						if bin < d {
							s.hist[bin]++
						}
					}
				}
			}
			consider(src.Edge)
			for _, u := range s.dij.Reached() {
				g.Neighbors(u, func(_, ei int32, _ float64) { consider(ei) })
			}
		})
	hist := make([]int64, d)
	for _, p := range partials {
		for i, v := range p.hist {
			hist[i] += v
		}
	}
	running := int64(0)
	for i := range hist {
		running += hist[i]
		out[i] = int(running)
	}
	return out, nil
}

// NetworkPlot computes a network K-function plot: the observed curve plus
// min/max envelopes over sims datasets of equal size placed uniformly at
// random on the network by length (the network CSR null model).
//
// The simulations fan out across workers with per-simulation RNGs derived
// from rng's next value, so the envelopes are bit-identical for every
// worker count.
func NetworkPlot(g *network.Graph, events []network.Position, thresholds []float64, sims, workers int, rng *rand.Rand) (*Plot, error) {
	if sims < 1 {
		return nil, fmt.Errorf("kfunc: need at least 1 simulation, got %d", sims)
	}
	obs, err := NetworkCurve(g, events, thresholds, workers)
	if err != nil {
		return nil, err
	}
	p := newPlot(thresholds, obs, sims)
	inner := innerWorkers(workers, sims)
	err = envelope(nil, p.Lo, p.Hi, sims, workers, rng.Int63(), func() struct{} { return struct{}{} },
		func(_ context.Context, rng *rand.Rand, _ struct{}, _ int) ([]int, error) {
			return NetworkCurve(g, network.RandomPositionsRand(rng, g, len(events)), thresholds, inner)
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}
