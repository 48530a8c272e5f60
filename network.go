package geostat

import (
	"math/rand"

	"geostat/internal/kfunc"
	"geostat/internal/network"
	"geostat/internal/nkdv"
)

// RoadNetwork is a weighted undirected road graph.
type RoadNetwork = network.Graph

// NetworkBuilder accumulates nodes and edges for a RoadNetwork.
type NetworkBuilder = network.Builder

// NewNetworkBuilder returns an empty road-network builder.
func NewNetworkBuilder() *NetworkBuilder { return network.NewBuilder() }

// NetworkPosition is a location on a network: (edge, offset from edge
// start).
type NetworkPosition = network.Position

// Lixel is a linear pixel — the evaluation unit of NKDV.
type Lixel = network.Lixel

// NKDVSurface is an NKDV result: one density value per lixel.
type NKDVSurface = nkdv.Surface

// NKDVOptions configures network KDV.
type NKDVOptions = nkdv.Options

// GridNetwork returns a Manhattan-grid road network (nx×ny intersections,
// spacing apart).
func GridNetwork(nx, ny int, spacing float64, origin Point) *RoadNetwork {
	return network.GridNetwork(nx, ny, spacing, origin)
}

// RingRadialNetwork returns a ring-and-spoke road network (the Figure 3
// topology).
func RingRadialNetwork(rings, spokes int, ringSpacing float64, center Point) *RoadNetwork {
	return network.RingRadialNetwork(rings, spokes, ringSpacing, center)
}

// ReadNetworkCSVFile builds a road network from an edge-list CSV
// (header x1,y1,x2,y2[,length]; nodes deduplicated by coordinates).
func ReadNetworkCSVFile(path string) (*RoadNetwork, error) {
	return network.ReadEdgeCSVFile(path)
}

// WriteNetworkCSVFile writes a road network as an edge-list CSV.
func WriteNetworkCSVFile(path string, g *RoadNetwork) error {
	return network.WriteEdgeCSVFile(path, g)
}

// SnapToNetwork maps a planar point to its nearest network position.
func SnapToNetwork(g *RoadNetwork, p Point) (NetworkPosition, float64) { return g.Snap(p) }

// RandomNetworkEventsRand places n events uniformly (by length) on the
// network — the network CSR null model — drawing from rng (NewRand(seed)
// for a placement reproducible from seed; one generator composes several
// draws from one seeded stream).
func RandomNetworkEventsRand(rng *rand.Rand, g *RoadNetwork, n int) []NetworkPosition {
	return network.RandomPositionsRand(rng, g, n)
}

// ClusteredNetworkEvents places n events around nCenters random hotspots,
// reproducibly from seed.
func ClusteredNetworkEvents(g *RoadNetwork, n, nCenters int, spread float64, seed int64) []NetworkPosition {
	return network.ClusteredPositions(g, n, nCenters, spread, seed)
}

// NKDV computes network kernel density with the fast event-expansion
// algorithm (one bounded Dijkstra per event).
func NKDV(g *RoadNetwork, events []NetworkPosition, opt NKDVOptions) (*NKDVSurface, error) {
	return nkdv.Forward(g, events, opt)
}

// NKDVNaive computes network kernel density with one Dijkstra per lixel —
// the baseline.
func NKDVNaive(g *RoadNetwork, events []NetworkPosition, opt NKDVOptions) (*NKDVSurface, error) {
	return nkdv.Naive(g, events, opt)
}

// NKDVEqualSplit computes NKDV with Okabe's equal-split kernel on the
// shortest-path tree: mass divides among an intersection's onward edges,
// so total density mass is conserved across junctions (the plain kernel
// inflates it).
func NKDVEqualSplit(g *RoadNetwork, events []NetworkPosition, opt NKDVOptions) (*NKDVSurface, error) {
	return nkdv.ForwardESD(g, events, opt)
}

// NetworkKFunction computes the network K-function at a single threshold
// by the per-pair baseline.
func NetworkKFunction(g *RoadNetwork, events []NetworkPosition, s float64) int {
	return kfunc.NetworkNaive(g, events, s)
}

// NetworkKFunctionCurve computes the network K-function at every threshold
// with one bounded Dijkstra per event.
func NetworkKFunctionCurve(g *RoadNetwork, events []NetworkPosition, thresholds []float64, workers int) ([]int, error) {
	return kfunc.NetworkCurve(g, events, thresholds, workers)
}

// NetworkKFunctionPlot computes a network K-function plot with envelopes
// from uniform-on-network simulations.
func NetworkKFunctionPlot(g *RoadNetwork, events []NetworkPosition, thresholds []float64, sims, workers int, rng *rand.Rand) (*KPlot, error) {
	return kfunc.NetworkPlot(g, events, thresholds, sims, workers, rng)
}
