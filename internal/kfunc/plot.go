package kfunc

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/parallel"
)

// Regime classifies a dataset's behaviour at one threshold relative to the
// Monte-Carlo envelope (the reading of Figure 2 in the paper).
type Regime int

const (
	// Random: K within [L(s), U(s)] — indistinguishable from CSR.
	Random Regime = iota
	// Clustered: K above U(s) — meaningful hotspots at this scale.
	Clustered
	// Dispersed: K below L(s) — points repel at this scale.
	Dispersed
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case Clustered:
		return "clustered"
	case Dispersed:
		return "dispersed"
	default:
		return "random"
	}
}

// Plot is a K-function plot (Definition 3): the observed curve K(s_d) and
// the pointwise min/max envelope over L simulated CSR datasets.
type Plot struct {
	S   []float64 // thresholds s_1..s_D
	K   []float64 // observed K_P(s_d), raw ordered-pair counts
	Lo  []float64 // L(s_d) = min over simulations (Equation 4)
	Hi  []float64 // U(s_d) = max over simulations (Equation 5)
	Sim int       // number of simulations L
}

// RegimeAt classifies the dataset at threshold index d per Figure 2.
func (p *Plot) RegimeAt(d int) Regime {
	switch {
	case p.K[d] > p.Hi[d]:
		return Clustered
	case p.K[d] < p.Lo[d]:
		return Dispersed
	default:
		return Random
	}
}

// PlotOptions configures MakePlot.
type PlotOptions struct {
	// Thresholds are the s_1 < ... < s_D evaluation distances.
	Thresholds []float64
	// Simulations is L, the number of random datasets for the envelope.
	Simulations int
	// Window is the region CSR simulations draw from. A zero box means the
	// data's bounding box.
	Window geom.BBox
	// Workers parallelises the observed curve AND fans the envelope
	// simulations out across goroutines (0/1 serial, <0 GOMAXPROCS). The
	// envelopes are bit-identical for every worker count: simulation l
	// draws from an RNG seeded deterministically from (seed, l).
	Workers int
	// Ctx optionally bounds the computation: the observed curve, the
	// envelope fan-out and every simulation's curve check it between
	// chunks, and the plot constructors return ctx.Err() (with a nil plot)
	// when it fires. Nil means no cancellation.
	Ctx context.Context
}

// context returns the effective context of the computation.
func (o *PlotOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// observed returns the plot columns of an observed curve: K holds the
// counts, and Lo / Hi start at +Inf / −Inf for envelope to narrow.
func observed(obs []int) (k, lo, hi []float64) {
	k, lo, hi = make([]float64, len(obs)), make([]float64, len(obs)), make([]float64, len(obs))
	for i, c := range obs {
		k[i] = float64(c)
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	return k, lo, hi
}

// newPlot allocates a Plot holding the observed counts with empty
// envelopes.
func newPlot(thresholds []float64, obs []int, sims int) *Plot {
	p := &Plot{S: append([]float64(nil), thresholds...), Sim: sims}
	p.K, p.Lo, p.Hi = observed(obs)
	return p
}

// envelope is the one Monte-Carlo driver of the K family: it fans sims
// null simulations out across workers and narrows lo / hi to the pointwise
// min / max of their counts. sim(ctx, rng, s, l) returns simulation l's
// counts, drawn from rng alone with s as its worker's scratch (it is
// called concurrently, each worker with its own scratch; a one-worker
// fan-out calls it serially in index order). rng is seeded from (seed, l)
// and min / max are order-insensitive, so lo / hi are bit-identical for
// every worker count. ctx (nil means none) bounds the fan-out; sim gets
// its untraced form. A simulation cut short is an error even when the
// fan-out did not see ctx fire; on error lo / hi are partial.
func envelope[S any](ctx context.Context, lo, hi []float64, sims, workers int, seed int64,
	newScratch func() S, sim func(ctx context.Context, rng *rand.Rand, s S, l int) ([]int, error)) error {
	simCtx := untraced(ctx)
	var mu sync.Mutex
	var simErr error
	_, err := parallel.MonteCarloScratchCtx(ctx, sims, workers, seed, newScratch,
		func(rng *rand.Rand, s S, l int) {
			counts, err := sim(simCtx, rng, s, l)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				simErr = cmp.Or(simErr, err)
				return
			}
			for i, c := range counts {
				v := float64(c)
				lo[i] = math.Min(lo[i], v)
				hi[i] = math.Max(hi[i], v)
			}
		})
	return cmp.Or(err, simErr)
}

// innerWorkers decides the parallelism of one simulation's curve: when the
// simulation fan-out itself is parallel, each simulation runs serially
// (the fan-out already saturates the cores); a serial fan-out passes the
// full worker budget down.
func innerWorkers(workers, sims int) int {
	if sims > 1 && parallel.Workers(workers) > 1 {
		return 1
	}
	return workers
}

// noValues carries a context's cancellation but none of its values.
type noValues struct{ context.Context }

func (noValues) Value(any) any { return nil }

// untraced is ctx without its values (a nil ctx means no cancellation), so
// the curves of the envelope simulations open no spans: a traced plot's
// tree keeps one monte_carlo node instead of growing a node per simulation.
func untraced(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return noValues{ctx}
}

// simScratch is one worker's reusable storage for envelope simulations:
// the simulated pattern's columns, its cell list and its curve. Nothing
// in it survives from one simulation to the next but capacity — every
// simulation overwrites the columns in full and rebuilds the cell list
// from them — so reuse cannot change an envelope.
type simScratch struct {
	xs, ys []float64
	cells  cells
	counts []int
}

// resize sets the length of the scratch columns; their contents are then
// unspecified and the caller overwrites all of them.
func (s *simScratch) resize(n int) {
	s.xs, s.ys = resize(s.xs, n), resize(s.ys, n)
}

// load overwrites the scratch columns with cols' coordinates.
func (s *simScratch) load(cols dataset.Columns) {
	s.resize(cols.N())
	copy(s.xs, cols.X)
	copy(s.ys, cols.Y)
}

// plotRun is a plot under construction: the validated request, the shared
// binner (thresholds squared once for the observed curve and every
// simulation) and the plot holding the observed curve.
type plotRun struct {
	opt  PlotOptions
	ctx  context.Context
	bins *binner
	plot *Plot
}

// observe validates opt and computes the observed curve of the points
// (xs[i], ys[i]) — the first half of every plot constructor.
func observe(xs, ys []float64, opt PlotOptions) (*plotRun, error) {
	if opt.Simulations < 1 {
		return nil, fmt.Errorf("kfunc: need at least 1 simulation, got %d", opt.Simulations)
	}
	if err := checkThresholds(opt.Thresholds); err != nil {
		return nil, err
	}
	r := &plotRun{opt: opt, ctx: opt.context(), bins: squaredBinner(opt.Thresholds)}
	obs := make([]int, len(opt.Thresholds))
	var c cells
	if err := c.curve(r.ctx, xs, ys, r.bins, opt.Workers, obs); err != nil {
		return nil, err
	}
	r.plot = newPlot(opt.Thresholds, obs, opt.Simulations)
	return r, nil
}

func (r *plotRun) newScratch() *simScratch {
	return &simScratch{counts: make([]int, len(r.opt.Thresholds))}
}

// simulate fills the plot's envelope: fill(rng, s) writes one null pattern
// into s.xs / s.ys, the simulations fan out across workers, and each
// curve runs on inner workers.
func (r *plotRun) simulate(workers, inner int, seed int64, fill func(rng *rand.Rand, s *simScratch)) (*Plot, error) {
	err := envelope(r.ctx, r.plot.Lo, r.plot.Hi, r.opt.Simulations, workers, seed, r.newScratch,
		func(ctx context.Context, rng *rand.Rand, s *simScratch, _ int) ([]int, error) {
			fill(rng, s)
			err := s.cells.curve(ctx, s.xs, s.ys, r.bins, inner, s.counts)
			return s.counts, err
		})
	if err != nil {
		return nil, err
	}
	return r.plot, nil
}

// MakePlotWithNull computes a K-function plot whose envelope comes from a
// caller-supplied null model: simulate is called opt.Simulations times and
// must return a dataset of comparable size. This generalises Definition 3
// beyond CSR — e.g. pass a SampleFromIntensity closure for the
// inhomogeneous null ("same first-order intensity, no interaction"), or a
// random-labelling null for marked patterns.
//
// simulate is invoked SERIALLY (it may close over shared state such as a
// rand.Rand); only each simulated dataset's curve uses opt.Workers.
func MakePlotWithNull(cols dataset.Columns, opt PlotOptions, simulate func() dataset.Columns) (*Plot, error) {
	r, err := observe(cols.X, cols.Y, opt)
	if err != nil {
		return nil, err
	}
	return r.simulate(1, opt.Workers, 0, func(_ *rand.Rand, s *simScratch) { s.load(simulate()) })
}

// MakePlot computes a K-function plot for pts: the observed curve plus
// min/max envelopes over opt.Simulations CSR datasets of the same size
// (Definition 3). rng seeds the simulations; pass a seeded source for
// reproducibility. Simulations fan out across opt.Workers with
// bit-identical results for every worker count.
func MakePlot(pts []geom.Point, opt PlotOptions, rng *rand.Rand) (*Plot, error) {
	if noWindow(opt.Window) {
		opt.Window = geom.NewBBox(pts)
	}
	xs, ys := geom.SplitXY(pts)
	return makeCSRPlot(xs, ys, opt, rng)
}

// MakePlotColumns is MakePlot over a columnar point set: no copy of the
// observed points is made.
func MakePlotColumns(cols dataset.Columns, opt PlotOptions, rng *rand.Rand) (*Plot, error) {
	if noWindow(opt.Window) {
		opt.Window = cols.Bounds()
	}
	return makeCSRPlot(cols.X, cols.Y, opt, rng)
}

// noWindow reports whether w cannot host a CSR simulation.
func noWindow(w geom.BBox) bool { return w.IsEmpty() || w.Area() == 0 }

// makeCSRPlot is the CSR plot of the points (xs[i], ys[i]) in opt.Window.
// Each simulation draws its pattern straight into its worker's reused
// columns, in dataset.UniformCSR's draw order.
func makeCSRPlot(xs, ys []float64, opt PlotOptions, rng *rand.Rand) (*Plot, error) {
	if noWindow(opt.Window) {
		return nil, fmt.Errorf("kfunc: degenerate window; provide PlotOptions.Window")
	}
	seed := rng.Int63()
	r, err := observe(xs, ys, opt)
	if err != nil {
		return nil, err
	}
	return r.simulate(opt.Workers, innerWorkers(opt.Workers, opt.Simulations), seed, func(rng *rand.Rand, s *simScratch) {
		s.resize(len(xs))
		dataset.FillUniformCSR(rng, opt.Window, s.xs, s.ys)
	})
}
