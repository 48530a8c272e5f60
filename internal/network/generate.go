package network

import (
	"math"
	"math/rand"

	"geostat/internal/geom"
	"geostat/internal/parallel"
)

// GridNetwork returns a Manhattan grid road network with nx×ny
// intersections spaced `spacing` apart, anchored at origin. This is the
// synthetic stand-in for the urban road networks used by the network-tool
// literature the paper reviews (traffic accidents on street grids).
func GridNetwork(nx, ny int, spacing float64, origin geom.Point) *Graph {
	b := NewBuilder()
	id := func(ix, iy int) int32 { return int32(iy*nx + ix) }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			b.AddNode(geom.Point{
				X: origin.X + float64(ix)*spacing,
				Y: origin.Y + float64(iy)*spacing,
			})
		}
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			if ix+1 < nx {
				b.AddEdge(id(ix, iy), id(ix+1, iy))
			}
			if iy+1 < ny {
				b.AddEdge(id(ix, iy), id(ix, iy+1))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("network: GridNetwork construction failed: " + err.Error())
	}
	return g
}

// RingRadialNetwork returns a network of `rings` concentric ring roads
// crossed by `spokes` radial roads around center — the Figure 3 topology
// where two planar-close points can be network-far (adjacent spokes near
// the center are connected only via ring roads further out).
func RingRadialNetwork(rings, spokes int, ringSpacing float64, center geom.Point) *Graph {
	b := NewBuilder()
	hub := b.AddNode(center)
	// nodeAt[r][s] = node on ring r (1-based radius), spoke s.
	nodeAt := make([][]int32, rings)
	for r := 0; r < rings; r++ {
		nodeAt[r] = make([]int32, spokes)
		radius := float64(r+1) * ringSpacing
		for s := 0; s < spokes; s++ {
			theta := 2 * math.Pi * float64(s) / float64(spokes)
			nodeAt[r][s] = b.AddNode(geom.Point{
				X: center.X + radius*math.Cos(theta),
				Y: center.Y + radius*math.Sin(theta),
			})
		}
	}
	for s := 0; s < spokes; s++ {
		// Radial segments: hub -> ring 1 -> ... -> ring R.
		b.AddEdge(hub, nodeAt[0][s])
		for r := 0; r+1 < rings; r++ {
			b.AddEdge(nodeAt[r][s], nodeAt[r+1][s])
		}
		// Ring segments (arc length as weight, not chord, to model the road).
		for r := 0; r < rings; r++ {
			next := (s + 1) % spokes
			arc := 2 * math.Pi * float64(r+1) * ringSpacing / float64(spokes)
			b.AddEdgeLen(nodeAt[r][s], nodeAt[r][next], arc)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("network: RingRadialNetwork construction failed: " + err.Error())
	}
	return g
}

// RandomPositionsRand returns n positions uniformly distributed over the
// network by length — the CSR null model on a network, used for network
// K-function envelopes (Definition 3 restricted to the network). It draws
// from r alone, so the placement is reproducible from r's seed; inside
// parallel.MonteCarloCtx envelope loops each simulation owns a per-task
// RNG.
func RandomPositionsRand(r *rand.Rand, g *Graph, n int) []Position {
	// Cumulative edge lengths for proportional sampling.
	cum := make([]float64, g.NumEdges()+1)
	for ei := 0; ei < g.NumEdges(); ei++ {
		cum[ei+1] = cum[ei] + g.Edge(int32(ei)).Length
	}
	total := cum[g.NumEdges()]
	out := make([]Position, n)
	for i := range out {
		target := r.Float64() * total
		// Binary search for the edge containing the target length.
		lo, hi := 0, g.NumEdges()
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] <= target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo >= g.NumEdges() {
			lo = g.NumEdges() - 1
		}
		out[i] = Position{Edge: int32(lo), Offset: target - cum[lo]}
	}
	return out
}

// ClusteredPositions returns n positions concentrated around nCenters
// random "hotspot" positions: each event picks a center, then a position
// within network distance at most spread of it (by snapping a planar
// Gaussian jitter). Used to exercise network hotspot detection. The
// placement is reproducible from seed.
func ClusteredPositions(g *Graph, n, nCenters int, spread float64, seed int64) []Position {
	return ClusteredPositionsRand(parallel.NewRand(seed), g, n, nCenters, spread)
}

// ClusteredPositionsRand is ClusteredPositions drawing from an existing
// seeded generator.
func ClusteredPositionsRand(r *rand.Rand, g *Graph, n, nCenters int, spread float64) []Position {
	centers := RandomPositionsRand(r, g, nCenters)
	out := make([]Position, n)
	for i := range out {
		c := centers[r.Intn(len(centers))]
		p := g.PointAt(c.Edge, c.Offset)
		jittered := geom.Point{
			X: p.X + r.NormFloat64()*spread,
			Y: p.Y + r.NormFloat64()*spread,
		}
		pos, _ := g.Snap(jittered)
		out[i] = pos
	}
	return out
}
