package kfunc

import (
	"math/rand"
	"testing"

	"geostat/internal/geom"
	"geostat/internal/network"
)

func testNet() *network.Graph {
	return network.GridNetwork(8, 8, 10, geom.Point{})
}

func TestNetworkNaiveHandValues(t *testing.T) {
	// Straight-line network with events at offsets 0, 3, 10 on a 2-edge line.
	b := network.NewBuilder()
	n0 := b.AddNode(geom.Point{X: 0, Y: 0})
	n1 := b.AddNode(geom.Point{X: 5, Y: 0})
	n2 := b.AddNode(geom.Point{X: 10, Y: 0})
	b.AddEdge(n0, n1)
	b.AddEdge(n1, n2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	events := []network.Position{
		{Edge: 0, Offset: 0},
		{Edge: 0, Offset: 3},
		{Edge: 1, Offset: 5}, // x = 10
	}
	if got := NetworkNaive(g, events, 2); got != 0 {
		t.Errorf("K(2) = %d", got)
	}
	if got := NetworkNaive(g, events, 3); got != 2 {
		t.Errorf("K(3) = %d, want 2", got)
	}
	if got := NetworkNaive(g, events, 7); got != 4 {
		t.Errorf("K(7) = %d, want 4", got)
	}
	if got := NetworkNaive(g, events, 10); got != 6 {
		t.Errorf("K(10) = %d, want 6", got)
	}
}

func TestNetworkCurveMatchesNaive(t *testing.T) {
	g := testNet()
	rng := rand.New(rand.NewSource(1))
	events := network.RandomPositionsRand(rng, g, 150)
	thresholds := []float64{2, 5, 10, 20, 40}
	curve, err := NetworkCurve(g, events, thresholds, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range thresholds {
		want := NetworkNaive(g, events, s)
		if curve[i] != want {
			t.Errorf("s=%v: curve %d, naive %d", s, curve[i], want)
		}
	}
	// Parallel agrees.
	par, err := NetworkCurve(g, events, thresholds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range thresholds {
		if par[i] != curve[i] {
			t.Errorf("parallel network curve differs at %d: %d vs %d", i, par[i], curve[i])
		}
	}
}

func TestNetworkCurveEdgeCases(t *testing.T) {
	g := testNet()
	out, err := NetworkCurve(g, nil, []float64{5}, 0)
	if err != nil || out[0] != 0 {
		t.Errorf("empty events: %v, %v", out, err)
	}
	if _, err := NetworkCurve(g, nil, nil, 0); err == nil {
		t.Error("nil thresholds accepted")
	}
	// Duplicate events at the same position count each other at s=0.
	events := []network.Position{{Edge: 0, Offset: 2}, {Edge: 0, Offset: 2}}
	out, err = NetworkCurve(g, events, []float64{0.0001}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Errorf("duplicate events K = %d, want 2", out[0])
	}
}

// Network-clustered events must be flagged Clustered; uniform-on-network
// events must mostly read Random.
func TestNetworkPlotRegimes(t *testing.T) {
	g := testNet()
	rng := rand.New(rand.NewSource(2))
	thresholds := []float64{3, 6, 12, 24}

	clustered := network.ClusteredPositionsRand(rng, g, 200, 3, 4)
	p, err := NetworkPlot(g, clustered, thresholds, 19, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	anyClustered := false
	for d := range thresholds {
		if p.RegimeAt(d) == Clustered {
			anyClustered = true
		}
	}
	if !anyClustered {
		t.Error("network-clustered events never classified Clustered")
	}

	uniform := network.RandomPositionsRand(rng, g, 200)
	p, err = NetworkPlot(g, uniform, thresholds, 19, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	randomCount := 0
	for d := range thresholds {
		if p.RegimeAt(d) == Random {
			randomCount++
		}
	}
	if randomCount < len(thresholds)-1 {
		t.Errorf("uniform events Random at only %d/%d thresholds", randomCount, len(thresholds))
	}

	if _, err := NetworkPlot(g, uniform, thresholds, 0, 0, rng); err == nil {
		t.Error("0 simulations accepted")
	}
}

// Figure 3's overestimation claim, in K-function form: with events on two
// parallel roads that are planar-close but network-far, the planar
// K-function at small s sees cross-road pairs that the network K-function
// must not.
func TestPlanarOverestimatesNetworkK(t *testing.T) {
	// Two parallel roads 1 apart, connected only at the far ends (x=0).
	b := network.NewBuilder()
	a0 := b.AddNode(geom.Point{X: 0, Y: 0})
	a1 := b.AddNode(geom.Point{X: 100, Y: 0})
	c0 := b.AddNode(geom.Point{X: 0, Y: 1})
	c1 := b.AddNode(geom.Point{X: 100, Y: 1})
	b.AddEdge(a0, a1) // edge 0: bottom road
	b.AddEdge(c0, c1) // edge 1: top road
	b.AddEdge(a0, c0) // edge 2: the only connection
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var events []network.Position
	var planar []geom.Point
	for i := 0; i < 20; i++ {
		off := 80 + float64(i) // far end: x in [80, 99]
		events = append(events, network.Position{Edge: 0, Offset: off})
		events = append(events, network.Position{Edge: 1, Offset: off})
		planar = append(planar, geom.Point{X: off, Y: 0}, geom.Point{X: off, Y: 1})
	}
	const s = 2.0
	planarK := Naive(cols(planar), s)
	netK := NetworkNaive(g, events, s)
	if planarK <= netK {
		t.Errorf("planar K=%d should exceed network K=%d", planarK, netK)
	}
	// Each event has its cross-road twin (dist 1) and same-road neighbours
	// (dist 1, 2) planar; network only sees same-road neighbours.
	if netK == 0 {
		t.Error("network K should still count same-road neighbours")
	}
}
