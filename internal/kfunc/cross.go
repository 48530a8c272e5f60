package kfunc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	gridindex "geostat/internal/index/grid"
	"geostat/internal/stat"
)

// Cross-type and space-time interaction extensions of the K-function
// family: the bivariate (cross) K-function used to ask "do type-1 events
// cluster around type-2 events?" (crimes around bars, cases around
// outbreak sources), and the Knox test — the classic closed-form screen
// for space-time interaction that Equation 8's full surface generalises.

// CrossCount returns the number of (a, b) pairs with dist(a_i, b_j) <= s —
// the raw bivariate K-function numerator K_12(s).
func CrossCount(a, b dataset.Columns, s float64) int {
	if a.N() == 0 || b.N() == 0 {
		return 0
	}
	idx := gridindex.NewColumns(b.X, b.Y, s)
	count := 0
	for i, x := range a.X {
		count += idx.RangeCount(geom.Point{X: x, Y: a.Y[i]}, s)
	}
	return count
}

// CrossCurve evaluates the cross count at every threshold (ascending) in
// one pass over the close pairs: type a at (ax[i], ay[i]), type b at
// (bx[j], by[j]).
func CrossCurve(ax, ay, bx, by []float64, thresholds []float64) ([]int, error) {
	if err := checkThresholds(thresholds); err != nil {
		return nil, err
	}
	out := make([]int, len(thresholds))
	if len(ax) == 0 || len(bx) == 0 {
		return out, nil
	}
	sMax := thresholds[len(thresholds)-1]
	idx := gridindex.NewColumns(bx, by, sMax)
	bins := squaredBinner(thresholds)
	hist := make([]int64, len(thresholds))
	for i, x := range ax {
		// ForEachInRange reports d2 <= sMax·sMax — bins' own upper edge.
		idx.ForEachInRange(geom.Point{X: x, Y: ay[i]}, sMax, func(_ int, d2 float64) { hist[bins.bin(d2)]++ })
	}
	running := int64(0)
	for i := range hist {
		running += hist[i]
		out[i] = int(running)
	}
	return out, nil
}

// CrossPlot computes a bivariate K-function plot under the random-labelling
// null: the observed K_12 curve plus min/max envelopes over sims random
// reassignments of the type labels across the pooled points. Exceeding the
// envelope means the two types attract each other beyond what their pooled
// spatial pattern explains.
//
// Simulations fan out across workers (0/1 serial, <0 GOMAXPROCS); each
// relabelling shuffles its own copy of the pool with an RNG derived from
// rng's next value, so the envelopes are bit-identical for every worker
// count.
func CrossPlot(a, b dataset.Columns, thresholds []float64, sims, workers int, rng *rand.Rand) (*Plot, error) {
	if sims < 1 {
		return nil, fmt.Errorf("kfunc: need at least 1 simulation, got %d", sims)
	}
	na := a.N()
	if na == 0 || b.N() == 0 {
		return nil, fmt.Errorf("kfunc: both types need events (%d, %d)", na, b.N())
	}
	obs, err := CrossCurve(a.X, a.Y, b.X, b.Y, thresholds)
	if err != nil {
		return nil, err
	}
	p := newPlot(thresholds, obs, sims)
	poolX := append(append(make([]float64, 0, na+b.N()), a.X...), b.X...)
	poolY := append(append(make([]float64, 0, na+b.N()), a.Y...), b.Y...)
	err = envelope(nil, p.Lo, p.Hi, sims, workers, rng.Int63(),
		func() *simScratch {
			s := &simScratch{}
			s.resize(len(poolX))
			return s
		},
		func(_ context.Context, rng *rand.Rand, s *simScratch, _ int) ([]int, error) {
			xs, ys := s.xs, s.ys
			copy(xs, poolX)
			copy(ys, poolY)
			rng.Shuffle(len(xs), func(i, j int) {
				xs[i], xs[j] = xs[j], xs[i]
				ys[i], ys[j] = ys[j], ys[i]
			})
			return CrossCurve(xs[:na], ys[:na], xs[na:], ys[na:], thresholds)
		})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// KnoxResult is the Knox test for space-time interaction.
type KnoxResult struct {
	Statistic int     // pairs close in BOTH space and time
	PermMean  float64 // mean under time permutation
	PermStd   float64
	Z         float64
	P         float64 // upper-tail pseudo p-value (interaction inflates the count)
	Perms     int
}

// Knox counts unordered pairs simultaneously within spatial threshold s
// and temporal threshold t, and tests it against perms random permutations
// of the times over the fixed locations — the classical space-time
// interaction screen (Equation 8's K(s,t) at a single threshold pair, with
// the correct conditional null).
//
// The permutations are stat.PermutationSamples over the times, seeded
// from rng's next value and fanned out across workers (0/1 serial, <0
// GOMAXPROCS), so the result is bit-identical for every worker count.
func Knox(cols dataset.Columns, times []float64, s, t float64, perms, workers int, rng *rand.Rand) (*KnoxResult, error) {
	n := cols.N()
	if len(times) != n {
		return nil, fmt.Errorf("kfunc: %d points but %d times", n, len(times))
	}
	if n < 3 {
		return nil, fmt.Errorf("kfunc: Knox needs at least 3 events, got %d", n)
	}
	if perms < 1 {
		return nil, fmt.Errorf("kfunc: Knox needs perms >= 1, got %d", perms)
	}
	if rng == nil {
		return nil, fmt.Errorf("kfunc: Knox requires a rng")
	}
	// Enumerate spatially-close unordered pairs ONCE; permutations only
	// re-examine the time gaps of those pairs.
	idx := gridindex.NewColumns(cols.X, cols.Y, s)
	type pair struct{ i, j int32 }
	var pairs []pair
	for i, x := range cols.X {
		idx.ForEachInRange(geom.Point{X: x, Y: cols.Y[i]}, s, func(j int, _ float64) {
			if j > i {
				pairs = append(pairs, pair{int32(i), int32(j)})
			}
		})
	}
	countClose := func(ts []float64) int {
		c := 0
		for _, pr := range pairs {
			if math.Abs(ts[pr.i]-ts[pr.j]) <= t {
				c++
			}
		}
		return c
	}
	obs := countClose(times)
	samples, err := stat.PermutationSamples(times, stat.PermOptions{Perms: perms, Seed: rng.Int63(), Workers: workers},
		func(perm []float64) float64 { return float64(countClose(perm)) })
	if err != nil {
		return nil, err
	}
	mean, std := stat.MeanStd(samples)
	res := &KnoxResult{Statistic: obs, PermMean: mean, PermStd: std, Perms: perms}
	if std > 0 {
		res.Z = (float64(obs) - mean) / std
	}
	extreme := 0
	for _, v := range samples {
		if v >= float64(obs) {
			extreme++
		}
	}
	res.P = float64(extreme+1) / float64(perms+1)
	return res, nil
}
