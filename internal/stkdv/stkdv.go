// Package stkdv implements spatiotemporal kernel density visualization
// (§2.2 of the paper, [27, 41, 57]): the density surface is evaluated on an
// X×Y raster at T time slices, each event weighted by a product kernel
// K_s(spatial distance)·K_t(time gap).
//
// Two algorithms:
//
//   - Naive: O(X·Y·T·n) — the direct extension of the planar baseline.
//   - Shared: the computational-sharing structure of SWS [27]. Each event's
//     spatial footprint (the pixels inside its spatial support, with their
//     kernel values) is computed ONCE; its temporal kernel, a polynomial in
//     the slice time t over the event's active window, is spread across
//     slices with difference arrays of polynomial-coefficient grids. Total
//     work O(Σ_events footprint + T·X·Y), independent of how many slices
//     each event spans.
package stkdv

import (
	"fmt"
	"math"
	"sort"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Options configures an STKDV computation.
type Options struct {
	// SpaceKernel weights spatial distance (bandwidth b_s).
	SpaceKernel kernel.Kernel
	// TimeKernel weights the time gap (bandwidth b_t), applied to |t − t_p|.
	TimeKernel kernel.Kernel
	// Grid is the spatial raster.
	Grid geom.PixelGrid
	// Times are the ascending evaluation timestamps (the T slices).
	Times []float64
	// Workers parallelises Naive across (slice, row) pairs and Shared's
	// evaluation phase across rows; 0/1 serial, <0 GOMAXPROCS.
	Workers int
}

func (o *Options) validate() error {
	if o.SpaceKernel.Bandwidth() <= 0 || o.TimeKernel.Bandwidth() <= 0 {
		return fmt.Errorf("stkdv: kernels not initialised; use kernel.New")
	}
	if o.Grid.NX <= 0 || o.Grid.NY <= 0 {
		return fmt.Errorf("stkdv: grid not initialised")
	}
	if len(o.Times) == 0 {
		return fmt.Errorf("stkdv: no time slices")
	}
	prev := math.Inf(-1)
	for i, t := range o.Times {
		if math.IsNaN(t) || t <= prev {
			return fmt.Errorf("stkdv: Times must be strictly increasing and finite (index %d)", i)
		}
		prev = t
	}
	return nil
}

// Cube is an STKDV result: one density grid per time slice.
type Cube struct {
	Spec   geom.PixelGrid
	Times  []float64
	Values [][]float64 // Values[slice][pixel], pixel = iy*NX+ix
}

// Slice returns the density surface of time slice i as a raster grid
// (sharing storage with the cube).
func (c *Cube) Slice(i int) *raster.Grid {
	return &raster.Grid{Spec: c.Spec, Values: c.Values[i]}
}

// MaxAbsDiff returns the largest per-cell difference between two cubes.
func (c *Cube) MaxAbsDiff(o *Cube) (float64, error) {
	if len(c.Values) != len(o.Values) {
		return 0, fmt.Errorf("stkdv: cube slice counts differ")
	}
	m := 0.0
	for s := range c.Values {
		if len(c.Values[s]) != len(o.Values[s]) {
			return 0, fmt.Errorf("stkdv: cube sizes differ at slice %d", s)
		}
		for i := range c.Values[s] {
			if d := math.Abs(c.Values[s][i] - o.Values[s][i]); d > m {
				m = d
			}
		}
	}
	return m, nil
}

func newCube(opt *Options) *Cube {
	c := &Cube{Spec: opt.Grid, Times: append([]float64(nil), opt.Times...)}
	c.Values = make([][]float64, len(opt.Times))
	for i := range c.Values {
		c.Values[i] = make([]float64, opt.Grid.NumPixels())
	}
	return c
}

// Naive computes the exact STKDV by the O(X·Y·T·n) quadruple loop.
func Naive(d *dataset.Dataset, opt Options) (*Cube, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !d.HasTimes() {
		return nil, fmt.Errorf("stkdv: dataset has no event times")
	}
	cube := newCube(&opt)
	g := opt.Grid
	cols := d.Columns()
	eventTimes := d.Times()
	jobs := len(opt.Times) * g.NY
	// Each (slice, row) job writes a disjoint row of the cube.
	parallel.For(jobs, opt.Workers, func(j int) {
		si, iy := j/g.NY, j%g.NY
		ts := opt.Times[si]
		qy := g.CenterY(iy)
		row := cube.Values[si][iy*g.NX : (iy+1)*g.NX]
		for ix := range row {
			qx := g.CenterX(ix)
			sum := 0.0
			for i, x := range cols.X {
				kt := opt.TimeKernel.Eval(math.Abs(eventTimes[i] - ts))
				if kt == 0 {
					continue
				}
				dx, dy := x-qx, cols.Y[i]-qy
				sum += kt * opt.SpaceKernel.Eval2(dx*dx+dy*dy)
			}
			row[ix] = sum
		}
	})
	return cube, nil
}

// Shared computes the exact STKDV with per-event spatial footprints shared
// across time slices. Requirements: the spatial kernel must have finite
// support (any type), and the temporal kernel must be polynomial in the
// slice time — uniform, Epanechnikov or quartic.
func Shared(d *dataset.Dataset, opt Options) (*Cube, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if !d.HasTimes() {
		return nil, fmt.Errorf("stkdv: dataset has no event times")
	}
	if !opt.SpaceKernel.FiniteSupport() {
		return nil, fmt.Errorf("stkdv: Shared requires a finite-support spatial kernel, got %v", opt.SpaceKernel.Type())
	}
	nCoef, err := timePolyDegree(opt.TimeKernel.Type())
	if err != nil {
		return nil, err
	}
	cube := newCube(&opt)
	g := opt.Grid
	nxy := g.NumPixels()
	T := len(opt.Times)

	// Times recentred for polynomial conditioning.
	tMid := (opt.Times[0] + opt.Times[T-1]) / 2
	times := make([]float64, T)
	for i, t := range opt.Times {
		times[i] = t - tMid
	}

	// diff[slice][coef·nxy + pixel]: difference arrays; an event active for
	// slices [jLo, jHi) adds its coefficient grids at jLo and subtracts them
	// at jHi.
	diff := make([][]float64, T+1)
	for i := range diff {
		diff[i] = make([]float64, nCoef*nxy)
	}

	fp := g.Footprint(opt.SpaceKernel.Bandwidth())
	bt := opt.TimeKernel.Bandwidth()
	eventTimes := d.Times()
	coefs := make([]float64, nCoef)
	for i := range eventTimes {
		p := d.Point(i)
		tp := eventTimes[i] - tMid
		// Active slice range: |times[j] − tp| ≤ bt.
		jLo := sort.SearchFloat64s(times, tp-bt)
		jHi := sort.SearchFloat64s(times, tp+bt)
		for jHi < T && times[jHi] <= tp+bt {
			jHi++
		}
		if jLo >= jHi {
			continue
		}
		timePolyCoefs(opt.TimeKernel, tp, coefs)
		// Spatial footprint, computed once.
		rowLo, rowHi := fp.Rows(p.Y)
		addTo := diff[jLo]
		subFrom := diff[jHi] // jHi ≤ T; diff has T+1 rows
		for iy := rowLo; iy < rowHi; iy++ {
			dy := g.CenterY(iy) - p.Y
			colLo, colHi := fp.Cols(p.X, dy)
			dy2 := dy * dy
			rowBase := iy * g.NX
			for ix := colLo; ix < colHi; ix++ {
				dx := g.CenterX(ix) - p.X
				ks := opt.SpaceKernel.Eval2(dx*dx + dy2)
				if ks == 0 {
					continue
				}
				px := rowBase + ix
				for c := 0; c < nCoef; c++ {
					v := ks * coefs[c]
					addTo[c*nxy+px] += v
					subFrom[c*nxy+px] -= v
				}
			}
		}
	}

	// Evaluation: prefix-sum the difference arrays across slices and
	// evaluate the temporal polynomial at each slice time. Rows of each
	// slice are independent once `running` is advanced, so parallelise the
	// pixel loop.
	running := make([]float64, nCoef*nxy)
	for si := 0; si < T; si++ {
		dslice := diff[si]
		for k := range running {
			running[k] += dslice[k]
		}
		ts := times[si]
		out := cube.Values[si]
		parallel.ForRange(nxy, opt.Workers, func(lo, hi int) {
			for px := lo; px < hi; px++ {
				v := 0.0
				tPow := 1.0
				for c := 0; c < nCoef; c++ {
					v += running[c*nxy+px] * tPow
					tPow *= ts
				}
				if v < 0 {
					v = 0 // cancellation guard
				}
				out[px] = v
			}
		})
	}
	return cube, nil
}

// timePolyDegree returns the number of polynomial coefficients (degree+1)
// for a temporal kernel type usable by Shared.
func timePolyDegree(t kernel.Type) (int, error) {
	switch t {
	case kernel.Uniform:
		return 1, nil
	case kernel.Epanechnikov:
		return 3, nil
	case kernel.Quartic:
		return 5, nil
	}
	return 0, fmt.Errorf("stkdv: Shared requires a temporal kernel polynomial in time (uniform/epanechnikov/quartic), got %v", t)
}

// timePolyCoefs expands K_t(|t − tp|) as Σ_c coefs[c]·t^c on the support
// window (tp is already recentred like the slice times).
func timePolyCoefs(k kernel.Kernel, tp float64, coefs []float64) {
	bt := k.Bandwidth()
	switch k.Type() {
	case kernel.Uniform:
		coefs[0] = 1 / bt
	case kernel.Epanechnikov:
		// 1 − (t−tp)²/bt²
		inv := 1 / (bt * bt)
		coefs[0] = 1 - tp*tp*inv
		coefs[1] = 2 * tp * inv
		coefs[2] = -inv
	case kernel.Quartic:
		// (1 − (t−tp)²/bt²)²
		inv2 := 1 / (bt * bt)
		inv4 := inv2 * inv2
		tp2 := tp * tp
		coefs[0] = 1 - 2*tp2*inv2 + tp2*tp2*inv4
		coefs[1] = 4*tp*inv2 - 4*tp2*tp*inv4
		coefs[2] = -2*inv2 + 6*tp2*inv4
		coefs[3] = -4 * tp * inv4
		coefs[4] = inv4
	}
}
