package nkdv

import (
	"math"
	"math/rand"
	"testing"

	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/network"
)

// star returns a hub at the origin with `branches` unit-spaced arms of
// length 10 and the hub's branch edges ordered 0..branches-1.
func star(branches int) *network.Graph {
	b := network.NewBuilder()
	hub := b.AddNode(geom.Point{})
	for i := 0; i < branches; i++ {
		theta := 2 * math.Pi * float64(i) / float64(branches)
		tip := b.AddNode(geom.Point{X: 10 * math.Cos(theta), Y: 10 * math.Sin(theta)})
		b.AddEdge(hub, tip)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Hand-checkable ESD: event on branch 0 at distance 4 from a degree-3 hub.
// On the event's own branch the density is the plain kernel; past the hub
// each of the two other branches receives half the mass.
func TestESDStarSplit(t *testing.T) {
	g := star(3)
	events := []network.Position{{Edge: 0, Offset: 4}} // 4 from hub (edge runs hub->tip)
	k := kernel.MustNew(kernel.Epanechnikov, 8)
	o := Options{Kernel: k, LixelLength: 0.5}
	esd, err := ForwardESD(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Forward(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range esd.Lixels {
		var want float64
		d := 0.0
		switch l.Edge {
		case 0: // own branch: direct kernel, no split
			d = math.Abs(l.Center() - 4)
			want = k.Eval(d)
		default: // other branches: through the hub (dist 4), split by 2
			d = 4 + l.Center()
			want = k.Eval(d) / 2
		}
		if math.Abs(esd.Values[li]-want) > 1e-12 {
			t.Fatalf("edge %d center %v: ESD %v, want %v", l.Edge, l.Center(), esd.Values[li], want)
		}
		// The plain kernel does not split: on other branches it is double ESD.
		if l.Edge != 0 && want > 0 {
			if math.Abs(plain.Values[li]-2*esd.Values[li]) > 1e-12 {
				t.Fatalf("plain %v should be 2x ESD %v", plain.Values[li], esd.Values[li])
			}
		}
	}
}

// Mass conservation: on a line network (no intersections, no dead ends
// within reach) ESD equals the plain kernel exactly, and integrating the
// density over the lixels recovers n·(full kernel mass).
func TestESDLineMassConservation(t *testing.T) {
	b := network.NewBuilder()
	prev := b.AddNode(geom.Point{})
	for i := 1; i <= 40; i++ {
		cur := b.AddNode(geom.Point{X: float64(i * 5)})
		b.AddEdge(prev, cur)
		prev = cur
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var events []network.Position
	for i := 0; i < 30; i++ {
		// Keep events away from the line's ends so no mass is clipped.
		events = append(events, network.Position{
			Edge:   int32(10 + rng.Intn(20)),
			Offset: rng.Float64() * 5,
		})
	}
	const bw = 6.0
	k := kernel.MustNew(kernel.Epanechnikov, bw)
	o := Options{Kernel: k, LixelLength: 0.05}
	esd, err := ForwardESD(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Forward(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := esd.MaxAbsDiff(plain); d > 1e-9 {
		t.Fatalf("on a line, ESD must equal the plain kernel (diff %v)", d)
	}
	total := 0.0
	for li, l := range esd.Lixels {
		total += esd.Values[li] * l.Length()
	}
	// Each event's 1-D mass: ∫_{-b}^{b} (1 − t²/b²) dt = 4b/3.
	want := float64(len(events)) * 4 * bw / 3
	if math.Abs(total-want)/want > 0.01 {
		t.Errorf("integrated mass %v, want %v", total, want)
	}
}

// Mass conservation through intersections: on a degree-4 grid, ESD's
// integrated mass stays n·4b/3 while the plain kernel inflates it.
func TestESDGridMassConservation(t *testing.T) {
	g := network.GridNetwork(8, 8, 10, geom.Point{})
	rng := rand.New(rand.NewSource(2))
	// Interior events only (no clipping at the grid boundary).
	var events []network.Position
	for len(events) < 25 {
		pos := network.RandomPositionsRand(rng, g, 1)[0]
		p := g.PointAt(pos.Edge, pos.Offset)
		if p.X > 15 && p.X < 55 && p.Y > 15 && p.Y < 55 {
			events = append(events, pos)
		}
	}
	const bw = 8.0
	k := kernel.MustNew(kernel.Epanechnikov, bw)
	o := Options{Kernel: k, LixelLength: 0.1}
	esd, err := ForwardESD(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Forward(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	integrate := func(s *Surface) float64 {
		total := 0.0
		for li, l := range s.Lixels {
			total += s.Values[li] * l.Length()
		}
		return total
	}
	want := float64(len(events)) * 4 * bw / 3
	got := integrate(esd)
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("ESD integrated mass %v, want %v", got, want)
	}
	if integrate(plain) < want*1.2 {
		t.Errorf("plain kernel should inflate mass through degree-4 intersections: %v vs %v",
			integrate(plain), want)
	}
}

func TestESDDeadEndStopsMass(t *testing.T) {
	// Path A--B--C where C is a dead end behind B... make B degree 2 via a
	// T: A--B, B--C, B--D. Event near A side; C and D get half mass each.
	b := network.NewBuilder()
	na := b.AddNode(geom.Point{X: 0, Y: 0})
	nb := b.AddNode(geom.Point{X: 10, Y: 0})
	nc := b.AddNode(geom.Point{X: 20, Y: 0})
	nd := b.AddNode(geom.Point{X: 10, Y: 10})
	b.AddEdge(na, nb) // edge 0
	b.AddEdge(nb, nc) // edge 1
	b.AddEdge(nb, nd) // edge 2
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	events := []network.Position{{Edge: 0, Offset: 8}} // 2 before B
	k := kernel.MustNew(kernel.Uniform, 30)            // flat: reaches past the tips
	o := Options{Kernel: k, LixelLength: 1}
	esd, err := ForwardESD(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	// Every lixel on edges 1 and 2 gets K/2 (split at B, degree 3); the
	// dead ends C and D absorb the rest (no onward edges exist anyway).
	for li, l := range esd.Lixels {
		if l.Edge == 0 {
			continue
		}
		want := k.Eval(0) / 2 // uniform kernel: constant value 1/b
		if math.Abs(esd.Values[li]-want) > 1e-12 {
			t.Fatalf("edge %d: %v, want %v", l.Edge, esd.Values[li], want)
		}
	}
}

func TestESDValidation(t *testing.T) {
	g := star(3)
	if _, err := ForwardESD(g, nil, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	o := Options{Kernel: kernel.MustNew(kernel.Gaussian, 5), LixelLength: 1}
	if _, err := ForwardESD(g, nil, o); err == nil {
		t.Error("infinite-support kernel accepted")
	}
}
