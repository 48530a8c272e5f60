package nkdv

import (
	"math"

	"geostat/internal/network"
)

// ForwardESD computes NKDV with Okabe's equal-split discontinuous kernel
// restricted to the shortest-path tree: kernel mass passing through an
// intersection of degree d splits equally among its d−1 onward edges, so
// (unlike the plain shortest-path kernel of Forward) total mass is
// conserved across intersections — a junction of many roads no longer
// multiplies density. Mass hitting a dead end (degree 1) stops.
//
// Concretely, a lixel center x on edge f reached through endpoint E gets
//
//	K(dist(E)+off) · treeFactor(E) / (deg(E)−1)
//
// where treeFactor(E) multiplies 1/(deg(v)−1) over every intersection v on
// the shortest path strictly before E, and the entry is skipped when the
// shortest path to E runs along f itself (that mass already passed x and
// is accounted for by the entry at f's other endpoint or the same-edge
// term). Events on f itself contribute the direct term K(|off − srcOff|).
func ForwardESD(g *network.Graph, events []network.Position, opt Options) (*Surface, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	lixels, edgeOff := network.Lixelize(g, opt.LixelLength)
	s := &Surface{Lixels: lixels, EdgeOff: edgeOff, Values: make([]float64, len(lixels))}
	b := opt.Kernel.Bandwidth()

	degree := make([]int, g.NumNodes())
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		degree[u] = degreeOf(g, u)
	}

	type esdScratch struct {
		dij    *network.Dijkstra
		factor []float64
	}
	err := scatterOrdered(opt.context(), len(events), opt.Workers, s.Values,
		func() *esdScratch {
			return &esdScratch{dij: network.NewDijkstra(g), factor: make([]float64, g.NumNodes())}
		},
		func(sc *esdScratch, i int, out *sink) {
			dij, factor := sc.dij, sc.factor
			ev := events[i]
			dij.FromPosition(ev, b)
			reached := dij.Reached()
			// treeFactor per reached node, computed in settling order
			// (Reached appends on first touch, but parents settle before
			// children in Dijkstra order of distance — recompute by
			// increasing distance to be safe).
			ordered := orderByDist(dij, reached)
			e0 := g.Edge(ev.Edge)
			for _, u := range ordered {
				if u == e0.A || u == e0.B {
					factor[u] = 1 // seed: mass arrives along the source edge
					continue
				}
				pe := dij.ParentEdge(u)
				p := otherEnd(g, pe, u)
				split := float64(degree[p] - 1)
				if split <= 0 {
					factor[u] = 0 // mass cannot pass a dead end
					continue
				}
				factor[u] = factor[p] / split
			}
			// Direct same-edge contribution.
			first := edgeOff[ev.Edge]
			for k, dst := 0, out.run(first, edgeOff[ev.Edge+1]-first); k < len(dst); k++ {
				d := math.Abs(lixels[int(first)+k].Center() - ev.Offset)
				if d <= b {
					dst[k] += opt.Kernel.Eval(d)
				}
			}
			// Entries into every edge incident to a reached node.
			for _, u := range ordered {
				split := float64(degree[u] - 1)
				if split <= 0 {
					continue
				}
				enter := factor[u] / split
				if enter == 0 {
					continue
				}
				du := dij.Dist(u)
				pe := dij.ParentEdge(u)
				g.Neighbors(u, func(_, ei int32, _ float64) {
					if ei == pe {
						return // backtracking along the arrival edge
					}
					eu := g.Edge(ei)
					first := edgeOff[ei]
					for k, dst := 0, out.run(first, edgeOff[ei+1]-first); k < len(dst); k++ {
						off := lixels[int(first)+k].Center()
						if eu.B == u {
							off = eu.Length - off
						}
						d := du + off
						if d <= b {
							dst[k] += enter * opt.Kernel.Eval(d)
						}
					}
				})
			}
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func degreeOf(g *network.Graph, u int32) int {
	d := 0
	g.Neighbors(u, func(int32, int32, float64) { d++ })
	return d
}

func otherEnd(g *network.Graph, ei, u int32) int32 {
	e := g.Edge(ei)
	if e.A == u {
		return e.B
	}
	return e.A
}

// orderByDist returns the reached nodes sorted by settled distance so
// parents are processed before children.
func orderByDist(dij *network.Dijkstra, reached []int32) []int32 {
	out := append([]int32(nil), reached...)
	// Insertion sort: frontiers are small (bounded search).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && dij.Dist(out[j]) < dij.Dist(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
