package kfunc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/parallel"
)

// Spatiotemporal K-function (Equation 8 of the paper): pairs are counted
// when BOTH the spatial distance is within s and the time gap is within t.
// The plot (Figure 6) is a surface over an M×T grid of (s_α, t_β)
// thresholds with min/max envelopes from L simulations (Equations 9–10).

// STNaive computes K(s, t) by the O(n²) double loop (i ≠ j ordered pairs);
// event i is at (cols.X[i], cols.Y[i]) and time times[i].
func STNaive(cols dataset.Columns, times []float64, s, t float64) (int, error) {
	xs, ys := cols.X, cols.Y
	if len(times) != len(xs) {
		return 0, fmt.Errorf("kfunc: %d events but %d times", len(xs), len(times))
	}
	s2 := s * s
	count := 0
	for i := range xs {
		for j := range xs {
			if i == j {
				continue
			}
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= s2 && math.Abs(times[i]-times[j]) <= t {
				count++
			}
		}
	}
	return count, nil
}

// STSurface computes K(s_α, t_β) for every combination of the ascending
// spatial and temporal thresholds in ONE pass over the close pairs: each
// pair within (s_max, any t) is binned into the 2-D histogram
// (spatial bin, temporal bin) and a 2-D cumulative sum yields the full
// surface. Event i is at (xs[i], ys[i]) and time ts[i]. Row
// α·len(tThresholds)+β of the result is K(s_α, t_β).
func STSurface(xs, ys, ts []float64, sThresholds, tThresholds []float64, workers int) ([]int, error) {
	if err := checkThresholds(sThresholds); err != nil {
		return nil, fmt.Errorf("spatial: %w", err)
	}
	if err := checkThresholds(tThresholds); err != nil {
		return nil, fmt.Errorf("temporal: %w", err)
	}
	if len(ys) != len(xs) || len(ts) != len(xs) {
		return nil, fmt.Errorf("kfunc: %d x, %d y but %d times", len(xs), len(ys), len(ts))
	}
	m, tt := len(sThresholds), len(tThresholds)
	out := make([]int, m*tt)
	if len(xs) < 2 {
		return out, nil
	}
	sMax := sThresholds[m-1]
	tMax := tThresholds[tt-1]
	idx := gridindex.NewColumns(xs, ys, sMax)

	// hist[(sBin)·(tt+1) + tBin] counts pairs whose distance falls in
	// spatial bin sBin and time gap in temporal bin tBin; bin == len means
	// "beyond the largest threshold" and is dropped by the cumulation.
	width := tt + 1
	hist := make([]int64, (m+1)*width)
	sBins, tBins := squaredBinner(sThresholds), newBinner(tThresholds)
	binPair := func(local []int64, i int) {
		ti := ts[i]
		// ForEachInRange reports d2 <= sMax·sMax — sBins' own upper edge.
		idx.ForEachInRange(geom.Point{X: xs[i], Y: ys[i]}, sMax, func(j int, d2 float64) {
			if j == i {
				return
			}
			dt := math.Abs(ts[j] - ti)
			if !(dt <= tMax) { // also drops a NaN gap
				return
			}
			local[sBins.bin(d2)*width+tBins.bin(dt)]++
		})
	}

	partials := parallel.ForScratch(len(xs), workers,
		func() []int64 { return make([]int64, len(hist)) },
		func(local []int64, i int) { binPair(local, i) })
	for _, p := range partials {
		for i, v := range p {
			hist[i] += v
		}
	}

	// 2-D cumulative over bins (excluding the overflow row/col).
	cum := make([]int64, (m+1)*width)
	for a := 0; a < m; a++ {
		for b := 0; b < tt; b++ {
			c := hist[a*width+b]
			if a > 0 {
				c += cum[(a-1)*width+b]
			}
			if b > 0 {
				c += cum[a*width+b-1]
			}
			if a > 0 && b > 0 {
				c -= cum[(a-1)*width+b-1]
			}
			cum[a*width+b] = c
			out[a*tt+b] = int(c)
		}
	}
	return out, nil
}

// STPlot is a spatiotemporal K-function plot (Figure 6): observed surface
// plus envelopes, flattened row-major with the spatial index slow.
type STPlot struct {
	S, T      []float64
	K, Lo, Hi []float64 // len(S)·len(T) surfaces
	Sim       int
}

// At returns the surface values at spatial index a, temporal index b.
func (p *STPlot) At(a, b int) (k, lo, hi float64) {
	i := a*len(p.T) + b
	return p.K[i], p.Lo[i], p.Hi[i]
}

// RegimeAt classifies the dataset at threshold pair (a, b) like Figure 6.
func (p *STPlot) RegimeAt(a, b int) Regime {
	k, lo, hi := p.At(a, b)
	switch {
	case k > hi:
		return Clustered
	case k < lo:
		return Dispersed
	default:
		return Random
	}
}

// stScratch is one worker's reused columns for space-time simulations;
// every simulation overwrites all of them.
type stScratch struct{ xs, ys, ts []float64 }

// MakeSTPlot computes the observed K(s,t) surface and min/max envelopes
// over sims random datasets: CSR in the events' bounding box crossed with
// uniform times over the data's time range (the space-time null model: no
// interaction). A bounding box of zero area cannot host CSR and is
// rejected.
//
// The simulations fan out across workers with per-simulation RNGs derived
// from rng's next value, each drawn into its worker's reused columns, so
// the envelopes are bit-identical for every worker count.
func MakeSTPlot(d *dataset.Dataset, sThresholds, tThresholds []float64, sims, workers int, rng *rand.Rand) (*STPlot, error) {
	if !d.HasTimes() {
		return nil, fmt.Errorf("kfunc: dataset has no event times")
	}
	if sims < 1 {
		return nil, fmt.Errorf("kfunc: need at least 1 simulation, got %d", sims)
	}
	window := d.Bounds()
	if noWindow(window) {
		return nil, fmt.Errorf("kfunc: degenerate window: the events' bounding box has zero area")
	}
	cols := d.Columns()
	obs, err := STSurface(cols.X, cols.Y, d.Times(), sThresholds, tThresholds, workers)
	if err != nil {
		return nil, err
	}
	t0, t1, _ := d.TimeRange()
	p := &STPlot{
		S:   append([]float64(nil), sThresholds...),
		T:   append([]float64(nil), tThresholds...),
		Sim: sims,
	}
	p.K, p.Lo, p.Hi = observed(obs)
	n := d.N()
	inner := innerWorkers(workers, sims)
	err = envelope(nil, p.Lo, p.Hi, sims, workers, rng.Int63(),
		func() *stScratch {
			return &stScratch{xs: make([]float64, n), ys: make([]float64, n), ts: make([]float64, n)}
		},
		func(_ context.Context, rng *rand.Rand, s *stScratch, _ int) ([]int, error) {
			dataset.FillUniformCSR(rng, window, s.xs, s.ys)
			for i := range s.ts {
				s.ts[i] = t0 + rng.Float64()*(t1-t0)
			}
			return STSurface(s.xs, s.ys, s.ts, sThresholds, tThresholds, inner)
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}
