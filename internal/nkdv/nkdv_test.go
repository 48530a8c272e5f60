package nkdv

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/network"
)

func lineGraph() *network.Graph {
	b := network.NewBuilder()
	n0 := b.AddNode(geom.Point{X: 0, Y: 0})
	n1 := b.AddNode(geom.Point{X: 10, Y: 0})
	n2 := b.AddNode(geom.Point{X: 20, Y: 0})
	b.AddEdge(n0, n1)
	b.AddEdge(n1, n2)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func opts(b, lixel float64) Options {
	return Options{Kernel: kernel.MustNew(kernel.Epanechnikov, b), LixelLength: lixel}
}

func TestValidation(t *testing.T) {
	g := lineGraph()
	if _, err := Naive(g, nil, Options{}); err == nil {
		t.Error("zero options accepted")
	}
	bad := opts(5, 0)
	if _, err := Naive(g, nil, bad); err == nil {
		t.Error("zero lixel length accepted")
	}
	inf := Options{Kernel: kernel.MustNew(kernel.Gaussian, 5), LixelLength: 1}
	if _, err := Naive(g, nil, inf); err == nil {
		t.Error("infinite-support kernel accepted")
	}
	if _, err := Forward(g, nil, inf); err == nil {
		t.Error("Forward accepted infinite-support kernel")
	}
}

func TestHandComputedDensity(t *testing.T) {
	g := lineGraph()
	// One event at x=10 (node 1, offset 10 on edge 0).
	events := []network.Position{{Edge: 0, Offset: 10}}
	o := opts(5, 2)
	s, err := Naive(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	// Lixels on edge 0: [0,2),[2,4),...,[8,10) with centers 1,3,5,7,9.
	// Distance from center c to the event at 10 is 10−c; Epanechnikov with
	// b=5 is 1−d²/25 for d<5.
	for li, l := range s.Lixels {
		if l.Edge != 0 {
			continue
		}
		d := 10 - l.Center()
		want := 0.0
		if d < 5 {
			want = 1 - d*d/25
		}
		if math.Abs(s.Values[li]-want) > 1e-12 {
			t.Errorf("lixel %d (center %v): %v, want %v", li, l.Center(), s.Values[li], want)
		}
	}
}

func TestForwardMatchesNaive(t *testing.T) {
	g := network.GridNetwork(6, 6, 10, geom.Point{})
	rng := rand.New(rand.NewSource(1))
	events := network.RandomPositionsRand(rng, g, 120)
	for _, kt := range []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triangular} {
		o := Options{Kernel: kernel.MustNew(kt, 12), LixelLength: 3}
		a, err := Naive(g, events, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Forward(g, events, o)
		if err != nil {
			t.Fatal(err)
		}
		d, err := a.MaxAbsDiff(b)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 {
			t.Errorf("%v: Forward differs from Naive by %v", kt, d)
		}
	}
}

// TestWorkerCountBitIdentity pins the repo's flagship invariant on the
// three network-KDV algorithms: the surface is Float64bits-equal to the
// Workers = 1 run for every worker count, on every repetition. The
// event-expansion algorithms reduce float contributions, so this holds
// only while each lixel receives its additions in event order (see
// scatterOrdered); summing per-worker partial surfaces — whose contents
// depend on which worker claimed which chunk — fails it within a few
// repetitions. 5000 events give the two-worker run chunks of several
// scatter blocks, 1300 (Naive is far slower per event) chunks of less than
// one; Workers = -1 is the GOMAXPROCS path.
func TestWorkerCountBitIdentity(t *testing.T) {
	g := network.GridNetwork(8, 8, 10, geom.Point{})
	events := network.RandomPositionsRand(rand.New(rand.NewSource(2)), g, 5000)
	for _, tc := range []struct {
		name string
		run  func(*network.Graph, []network.Position, Options) (*Surface, error)
		n    int
		opt  Options
	}{
		{"Forward", Forward, 5000, opts(12, 2)},
		{"ForwardESD", ForwardESD, 5000, Options{Kernel: kernel.MustNew(kernel.Quartic, 12), LixelLength: 2}},
		{"Naive", Naive, 1300, opts(12, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events := events[:tc.n]
			tc.opt.Workers = 1
			want, err := tc.run(g, events, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8, -1} {
				tc.opt.Workers = workers
				for rep := 0; rep < 20; rep++ {
					got, err := tc.run(g, events, tc.opt)
					if err != nil {
						t.Fatal(err)
					}
					for li, v := range got.Values {
						if math.Float64bits(v) != math.Float64bits(want.Values[li]) {
							t.Fatalf("workers=%d rep %d: lixel %d = %x, want %x (workers=1)",
								workers, rep, li, math.Float64bits(v), math.Float64bits(want.Values[li]))
						}
					}
				}
			}
		})
	}
}

// TestEventExpansionCancels: a context that fires mid-run ends Forward and
// ForwardESD with its error and no surface, with workers parked on the
// ordered reduction's queue released.
func TestEventExpansionCancels(t *testing.T) {
	g := network.GridNetwork(8, 8, 10, geom.Point{})
	events := network.RandomPositionsRand(rand.New(rand.NewSource(3)), g, 200000)
	for name, run := range map[string]func(*network.Graph, []network.Position, Options) (*Surface, error){
		"Forward": Forward, "ForwardESD": ForwardESD,
	} {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			opt := opts(12, 2)
			opt.Workers, opt.Ctx = workers, ctx
			s, err := run(g, events, opt)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) || s != nil {
				t.Errorf("%s workers=%d: got (%v, %v), want (nil, deadline exceeded)", name, workers, s, err)
			}
		}
	}
}

// TestCancelledCtxStopsEveryMethod: each NKDV method run under an already
// cancelled opt.Ctx returns (nil, context.Canceled) instead of a surface.
func TestCancelledCtxStopsEveryMethod(t *testing.T) {
	g := network.GridNetwork(4, 4, 10, geom.Point{})
	events := network.RandomPositionsRand(rand.New(rand.NewSource(3)), g, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := opts(12, 2)
	opt.Ctx = ctx
	for name, run := range map[string]func(*network.Graph, []network.Position, Options) (*Surface, error){
		"Naive": Naive, "Forward": Forward, "ForwardESD": ForwardESD,
	} {
		if s, err := run(g, events, opt); s != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got (%v, %v), want (nil, context.Canceled)", name, s, err)
		}
	}
}

func TestEmptyEvents(t *testing.T) {
	g := lineGraph()
	s, err := Forward(g, nil, opts(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.Values {
		if v != 0 {
			t.Fatal("empty events produced density")
		}
	}
	if s.ArgMax() != 0 { // all-zero surface: first index wins
		t.Errorf("ArgMax = %d", s.ArgMax())
	}
	empty := &Surface{}
	if empty.ArgMax() != -1 {
		t.Error("ArgMax on empty surface should be -1")
	}
}

// Figure 3 reproduced on NKDV: q2 (network-far) must receive a smaller
// density than q1 (network-near) even though both are planar-close to the
// events.
func TestFigure3DensityOrdering(t *testing.T) {
	// Two parallel roads 2 apart joined only at x=0; events on the bottom
	// road's far end.
	b := network.NewBuilder()
	a0 := b.AddNode(geom.Point{X: 0, Y: 0})
	a1 := b.AddNode(geom.Point{X: 50, Y: 0})
	c0 := b.AddNode(geom.Point{X: 0, Y: 2})
	c1 := b.AddNode(geom.Point{X: 50, Y: 2})
	b.AddEdge(a0, a1) // edge 0 bottom
	b.AddEdge(c0, c1) // edge 1 top
	b.AddEdge(a0, c0) // edge 2 connector
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var events []network.Position
	for i := 0; i < 10; i++ {
		events = append(events, network.Position{Edge: 0, Offset: 40 + float64(i)})
	}
	o := opts(8, 1)
	s, err := Forward(g, events, o)
	if err != nil {
		t.Fatal(err)
	}
	// q1: bottom road near the events (x≈44.5); q2: top road at the same x.
	var q1, q2 float64
	for li, l := range s.Lixels {
		if l.Center() >= 44 && l.Center() < 45 {
			switch l.Edge {
			case 0:
				q1 = s.Values[li]
			case 1:
				q2 = s.Values[li]
			}
		}
	}
	if q1 <= 0 {
		t.Fatal("q1 got no density")
	}
	if q2 != 0 {
		t.Errorf("q2 (network-far) density = %v, want 0", q2)
	}
}

// Property: total mass equals the sum over events of the kernel evaluated
// at each lixel... instead verify surface consistency across lixel
// resolutions: the density at corresponding positions must agree.
func TestLixelResolutionConsistency(t *testing.T) {
	g := lineGraph()
	events := []network.Position{{Edge: 0, Offset: 5}}
	coarse, err := Forward(g, events, opts(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Forward(g, events, opts(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.MustNew(kernel.Epanechnikov, 6)
	// Every lixel's value must equal the kernel at its center distance.
	check := func(s *Surface) {
		for li, l := range s.Lixels {
			var d float64
			if l.Edge == 0 {
				d = math.Abs(l.Center() - 5)
			} else {
				d = 5 + l.Center()
			}
			want := 0.0
			if d <= 6 {
				want = k.Eval(d)
			}
			if math.Abs(s.Values[li]-want) > 1e-12 {
				t.Fatalf("lixel %d: %v, want %v", li, s.Values[li], want)
			}
		}
	}
	check(coarse)
	check(fine)
}

// Fuzz: Forward equals Naive on random graphs with random events and
// bandwidths (including events at edge endpoints).
func TestForwardMatchesNaiveFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		// Random connected-ish graph: a grid plus random chords.
		nx, ny := 2+r.Intn(4), 2+r.Intn(4)
		g := network.GridNetwork(nx, ny, 3+r.Float64()*10, geom.Point{})
		events := network.RandomPositionsRand(r, g, r.Intn(60))
		// Pin some events exactly at nodes (offset 0 or full length).
		for i := range events {
			if r.Intn(4) == 0 {
				e := g.Edge(events[i].Edge)
				if r.Intn(2) == 0 {
					events[i].Offset = 0
				} else {
					events[i].Offset = e.Length
				}
			}
		}
		kt := []kernel.Type{kernel.Uniform, kernel.Epanechnikov, kernel.Quartic, kernel.Triangular, kernel.Cosine}[r.Intn(5)]
		o := Options{
			Kernel:      kernel.MustNew(kt, 0.5+r.Float64()*30),
			LixelLength: 0.5 + r.Float64()*5,
		}
		a, err := Naive(g, events, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Forward(g, events, o)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := a.MaxAbsDiff(b); d > 1e-9 {
			t.Fatalf("trial %d (%v): diff %v", trial, kt, d)
		}
	}
}
