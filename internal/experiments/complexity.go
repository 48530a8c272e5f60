package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"geostat"
)

// RunC1 verifies the paper's headline K-function complexity claim: the
// naive method is O(n²) per threshold while the range-query and one-pass
// histogram methods scale near-linearly at fixed density — and §2.4's
// sharing claim as a shape: the one-pass curve at all four thresholds
// costs at most twice one grid range count at s_max on the same points
// (both find every pair within s_max; the curve finds each once).
func RunC1(cfg *Config) error {
	rng := cfg.rng()
	thresholds := []float64{1, 2, 4, 8}
	sMax := thresholds[len(thresholds)-1]
	tb := newTable("n", "naive (1 thr)", "grid (1 thr)", "kd-tree (1 thr)", "curve (4 thr)", "naive/grid", "curve/grid@s_max")
	sizes := []int{2000, 4000, 8000, 16000}
	if cfg.Quick {
		sizes = []int{500, 1000, 2000}
	}
	for _, n := range sizes {
		d := geostat.UniformCSR(rng, n, studyBox)
		pts := d.Points()
		const s = 4.0
		var naive, grid, kdt, gridMax int
		tNaive := medianOf3(func() { naive = geostat.KFunctionNaive(d, s) })
		tGrid := medianOf3(func() { grid = geostat.KFunction(pts, s) })
		tKD := medianOf3(func() { kdt = geostat.KFunctionKDTree(pts, s) })
		tGridMax := medianOf3(func() { gridMax = geostat.KFunction(pts, sMax) })
		var cv []int
		tCurve := medianOf3(func() { cv, _ = geostat.KFunctionCurve(d, thresholds, 0) })
		if naive != grid || grid != kdt {
			return fmt.Errorf("C1: methods disagree: %d %d %d", naive, grid, kdt)
		}
		if cv[len(cv)-1] != gridMax {
			return fmt.Errorf("C1: curve disagrees at s_max")
		}
		if tCurve > 2*tGridMax {
			return fmt.Errorf("C1: the 4-threshold curve costs %v at n=%d, over twice the %v of one grid count at s_max: the pass is not shared",
				tCurve, n, tGridMax)
		}
		tb.add(n, tNaive, tGrid, tKD, tCurve, speedup(tNaive, tGrid), fmt.Sprintf("%.2f", tCurve.Seconds()/tGridMax.Seconds()))
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "naive time ~4x per n doubling (O(n²)); indexed methods ~2x (near-linear at fixed density).")
	return nil
}

// RunC2 verifies the KDV claim: the baseline is O(XYn); grid-cutoff and
// the sweep line decouple the n term from the full raster. The O(XYn)
// column is directSum, the paper's pixel-major baseline. The library's
// naive runs beside it: for this finite kernel it scatters each row's
// points into the pixels they reach, and C2 fails unless its raster equals
// the direct sum's bit for bit.
func RunC2(cfg *Config) error {
	rng := cfg.rng()
	k := geostat.MustKernel(geostat.Quartic, 4)
	fmt.Fprintln(cfg.Out, "sweep over n (grid fixed 128x128, b=4):")
	tb := newTable("n", "direct O(XYn)", "naive", "grid-cutoff", "sweep-line", "direct/sweep")
	sizes := []int{5000, 10000, 20000, 40000}
	if cfg.Quick {
		sizes = []int{1000, 2000, 4000}
	}
	grid := geostat.NewPixelGrid(studyBox, 128, 128)
	for _, n := range sizes {
		d := geostat.UniformCSR(rng, n, studyBox)
		tDirect, tNaive, err := timeDirect(d, k, grid)
		if err != nil {
			return err
		}
		tSweep := timeKDV(d, k, grid, geostat.KDVSweepLine)
		tb.add(n, tDirect, tNaive, timeKDV(d, k, grid, geostat.KDVGridCutoff), tSweep, speedup(tDirect, tSweep))
	}
	tb.write(cfg.Out)

	fmt.Fprintln(cfg.Out, "\nsweep over raster size (n fixed 10000, b=4):")
	tb = newTable("pixels", "direct O(XYn)", "naive", "grid-cutoff", "sweep-line")
	d := geostat.UniformCSR(rng, cfg.scale(10000), studyBox)
	dims := []int{64, 128, 256}
	if cfg.Quick {
		dims = []int{32, 64}
	}
	for _, dim := range dims {
		g := geostat.NewPixelGrid(studyBox, dim, dim)
		tDirect, tNaive, err := timeDirect(d, k, g)
		if err != nil {
			return err
		}
		tb.add(fmt.Sprintf("%dx%d", dim, dim), tDirect, tNaive,
			timeKDV(d, k, g, geostat.KDVGridCutoff),
			timeKDV(d, k, g, geostat.KDVSweepLine))
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "direct = the paper's pixel-major sum over every point; naive = the library's exact baseline, bit-identical to it.")
	return nil
}

// directSum is §1's O(XYn) baseline, kept here as the experiment's
// reference: for each pixel, row-major, the sum of Kernel.Eval2 over every
// point in input order.
func directSum(pts []geostat.Point, k geostat.Kernel, g geostat.PixelGrid) []float64 {
	out := make([]float64, g.NumPixels())
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			q := g.Center(ix, iy)
			sum := 0.0
			for _, p := range pts {
				sum += k.Eval2(p.Dist2(q))
			}
			out[g.Index(ix, iy)] = sum
		}
	}
	return out
}

// timeDirect times directSum and the library's naive on one request, and
// fails unless the two rasters are equal bit for bit.
func timeDirect(d *geostat.Dataset, k geostat.Kernel, g geostat.PixelGrid) (direct, naive time.Duration, err error) {
	pts := d.Points()
	var want []float64
	direct = medianOf3(func() { want = directSum(pts, k, g) })
	var got *geostat.Heatmap
	naive = medianOf3(func() {
		if got, err = geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: g, Method: geostat.KDVNaive}); err != nil {
			panic(err)
		}
	})
	for i, v := range got.Values {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return 0, 0, fmt.Errorf("C2: naive pixel %d at %dx%d, n=%d is %v, the direct O(XYn) sum %v: not bit-identical",
				i, g.NX, g.NY, len(pts), v, want[i])
		}
	}
	return direct, naive, nil
}

func timeKDV(d *geostat.Dataset, k geostat.Kernel, g geostat.PixelGrid, m geostat.KDVMethod) time.Duration {
	return medianOf3(func() {
		if _, err := geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: g, Method: m}); err != nil {
			panic(err)
		}
	})
}

// RunC3 verifies Equation 6's (1±ε) guarantee empirically and measures the
// accuracy/speed trade-off for the Gaussian kernel (where no exact
// accelerator exists — §2.4's open problem).
func RunC3(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.GaussianClusters(rng, cfg.scale(20000), studyBox, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 40, Y: 40}, Sigma: 10, Weight: 1},
	}, 0.3)
	k := geostat.MustKernel(geostat.Gaussian, 8)
	grid := geostat.NewPixelGrid(studyBox, 64, 64)
	exact, err := geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: grid, Method: geostat.KDVNaive})
	if err != nil {
		return err
	}
	tNaive := medianOf3(func() {
		_, _ = geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: grid, Method: geostat.KDVNaive})
	})
	tb := newTable("eps", "time", "naive time", "speedup", "measured max rel err", "guarantee held")
	for _, eps := range []float64{0.5, 0.1, 0.01} {
		var approx *geostat.Heatmap
		t := medianOf3(func() {
			var err error
			approx, err = geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: grid, Method: geostat.KDVBoundApprox, Epsilon: eps})
			if err != nil {
				panic(err)
			}
		})
		worst := 0.0
		held := true
		for i, got := range approx.Values {
			f := exact.Values[i]
			if f == 0 {
				continue
			}
			rel := abs(got-f) / f
			if rel > worst {
				worst = rel
			}
			if rel > eps+1e-9 {
				held = false
			}
		}
		tb.add(eps, t, tNaive, speedup(tNaive, t), worst, held)
		if !held {
			return fmt.Errorf("C3: eps=%v guarantee violated (worst %v)", eps, worst)
		}
	}
	tb.write(cfg.Out)
	return nil
}

// RunC4 verifies the sampling family's probabilistic error bound and
// measures its n-independent cost.
func RunC4(cfg *Config) error {
	rng := cfg.rng()
	k := geostat.MustKernel(geostat.Quartic, 8)
	grid := geostat.NewPixelGrid(studyBox, 64, 64)
	tb := newTable("n", "eps", "sample size", "exact time", "sampled time", "measured max err (per point)", "bound eps")
	sizes := []int{50000, 200000}
	if cfg.Quick {
		sizes = []int{5000, 20000}
	}
	for _, n := range sizes {
		d := geostat.UniformCSR(rng, n, studyBox)
		exact, err := geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: grid})
		if err != nil {
			return err
		}
		tExact := medianOf3(func() { _, _ = geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: grid}) })
		for _, eps := range []float64{0.05, 0.02} {
			var approx *geostat.Heatmap
			t := medianOf3(func() {
				var err error
				approx, err = geostat.KDVDataset(d, geostat.KDVOptions{
					Kernel: k, Grid: grid, Method: geostat.KDVSampled,
					Epsilon: eps, Delta: 0.01, Seed: cfg.Seed + int64(n),
				})
				if err != nil {
					panic(err)
				}
			})
			worst := 0.0
			for i := range approx.Values {
				if e := abs(approx.Values[i]-exact.Values[i]) / float64(n); e > worst {
					worst = e
				}
			}
			m, _ := geostat.KDVSampleBound(grid.NumPixels(), eps, 0.01)
			tb.add(n, eps, m, tExact, t, worst, eps)
			if worst > eps {
				return fmt.Errorf("C4: n=%d eps=%v measured error %v above bound", n, eps, worst)
			}
		}
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "sample size depends only on (pixels, eps, delta), not n — speedup grows with n.")
	return nil
}

// RunC5 measures goroutine-parallel speedup for KDV and the K-curve.
func RunC5(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.UniformCSR(rng, cfg.scale(50000), studyBox)
	k := geostat.MustKernel(geostat.Quartic, 4)
	grid := geostat.NewPixelGrid(studyBox, 256, 256)
	thresholds := []float64{1, 2, 4, 8}
	maxW := runtime.GOMAXPROCS(0)
	fmt.Fprintf(cfg.Out, "GOMAXPROCS=%d (speedup is bounded by available cores)\n", maxW)
	tb := newTable("workers", "KDV grid-cutoff", "K-curve")
	var base1, base2 time.Duration
	seen := map[int]bool{}
	for _, w := range []int{1, 2, 4, maxW} {
		if w > maxW || seen[w] {
			continue
		}
		seen[w] = true
		t1 := medianOf3(func() {
			_, _ = geostat.KDVDataset(d, geostat.KDVOptions{Kernel: k, Grid: grid, Method: geostat.KDVGridCutoff, Workers: w})
		})
		t2 := medianOf3(func() { _, _ = geostat.KFunctionCurve(d, thresholds, w) })
		if w == 1 {
			base1, base2 = t1, t2
			tb.add(w, t1.String(), t2.String())
			continue
		}
		tb.add(w, fmt.Sprintf("%v (%s)", t1, speedup(base1, t1)), fmt.Sprintf("%v (%s)", t2, speedup(base2, t2)))
	}
	tb.write(cfg.Out)
	return nil
}

// RunC6 compares the network K-function baselines.
func RunC6(cfg *Config) error {
	rng := cfg.rng()
	g := geostat.GridNetwork(20, 20, 10, geostat.Point{})
	thresholds := []float64{5, 10, 20, 40}
	tb := newTable("events", "naive (1 thr)", "shared curve (4 thr)", "speedup")
	sizes := []int{500, 1000, 2000}
	if cfg.Quick {
		sizes = []int{100, 200}
	}
	for _, n := range sizes {
		events := geostat.RandomNetworkEventsRand(rng, g, n)
		var naive int
		tNaive := medianOf3(func() { naive = geostat.NetworkKFunction(g, events, 40) })
		var curve []int
		tCurve := medianOf3(func() { curve, _ = geostat.NetworkKFunctionCurve(g, events, thresholds, -1) })
		if curve[len(curve)-1] != naive {
			return fmt.Errorf("C6: methods disagree: %d vs %d", curve[len(curve)-1], naive)
		}
		tb.add(n, tNaive, tCurve, speedup(tNaive, tCurve))
	}
	tb.write(cfg.Out)
	return nil
}

// RunC7 verifies the IDW claim (naive O(XYn)) against the kNN and radius
// variants.
func RunC7(cfg *Config) error {
	rng := cfg.rng()
	grid := geostat.NewPixelGrid(studyBox, 128, 128)
	tb := newTable("n", "naive", "kNN (k=12)", "radius (r=8)", "naive/kNN")
	sizes := []int{5000, 20000, 80000}
	if cfg.Quick {
		sizes = []int{1000, 4000}
	}
	for _, n := range sizes {
		d := geostat.UniformCSR(rng, n, studyBox)
		geostat.WithField(rng, d, func(p geostat.Point) float64 { return p.X + p.Y }, 1)
		opt := geostat.IDWOptions{Grid: grid, Power: 2}
		tNaive := medianOf3(func() { _, _ = geostat.IDW(d, opt) })
		tKNN := medianOf3(func() { _, _ = geostat.IDWKNN(d, opt, 12) })
		tRad := medianOf3(func() { _, _ = geostat.IDWRadius(d, opt, 8) })
		tb.add(n, tNaive, tKNN, tRad, speedup(tNaive, tKNN))
	}
	tb.write(cfg.Out)
	return nil
}

// RunC8 measures the remaining Table 1 tools: kriging neighbourhood size,
// Moran/G permutation cost, DBSCAN naive vs grid.
func RunC8(cfg *Config) error {
	rng := cfg.rng()
	n := cfg.scale(5000)
	d := geostat.UniformCSR(rng, n, studyBox)
	geostat.WithField(rng, d, func(p geostat.Point) float64 { return p.X/10 + p.Y/20 + 20 }, 0.5)

	fmt.Fprintln(cfg.Out, "ordinary kriging (64x64 raster):")
	bins, err := geostat.EmpiricalVariogram(d, 30, 12)
	if err != nil {
		return err
	}
	v, err := geostat.FitVariogram(bins, geostat.SphericalModel)
	if err != nil {
		return err
	}
	grid := geostat.NewPixelGrid(studyBox, 64, 64)
	tb := newTable("neighbours k", "time")
	for _, k := range []int{8, 16, 32} {
		t := timeIt(func() {
			if _, kerr := geostat.Krige(d, geostat.KrigingOptions{Grid: grid, Variogram: v, Neighbors: k, Workers: cfg.workers()}); kerr != nil {
				panic(kerr)
			}
		})
		tb.add(k, t)
	}
	tb.write(cfg.Out)

	fmt.Fprintln(cfg.Out, "\nMoran's I / General G (kNN weights k=8):")
	w, err := geostat.KNNWeightsDataset(d, 8, cfg.workers())
	if err != nil {
		return err
	}
	pos := make([]float64, d.N())
	copy(pos, d.Values())
	tb = newTable("perms", "Moran's I", "General G")
	for _, perms := range []int{99, 999} {
		tMoran := timeIt(func() {
			opt := geostat.MoranOptions{Perms: perms, Seed: rng.Int63(), Workers: cfg.workers()}
			if _, err := geostat.MoranIOpt(d.Values(), w, opt); err != nil {
				panic(err)
			}
		})
		tG := timeIt(func() {
			opt := geostat.GetisOrdOptions{Perms: perms, Seed: rng.Int63(), Workers: cfg.workers()}
			if _, err := geostat.GeneralGOpt(pos, w, opt); err != nil {
				panic(err)
			}
		})
		tb.add(perms, tMoran, tG)
	}
	tb.write(cfg.Out)

	fmt.Fprintln(cfg.Out, "\nDBSCAN (eps=2, minPts=5):")
	tb = newTable("n", "naive", "grid", "speedup")
	sizes := []int{2000, 8000}
	if cfg.Quick {
		sizes = []int{500, 2000}
	}
	for _, dn := range sizes {
		pts := geostat.UniformCSR(rng, dn, studyBox)
		tNaive := medianOf3(func() { _, _ = geostat.DBSCANNaive(pts, 2, 5) })
		tGrid := medianOf3(func() { _, _ = geostat.DBSCAN(pts, 2, 5) })
		tb.add(dn, tNaive, tGrid, speedup(tNaive, tGrid))
	}
	tb.write(cfg.Out)
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// RunC9 measures view scaling: at fixed n and raster size, what a KDV costs
// as the view shrinks from the whole study box to 1/64 of it. The paper's
// use case is zoom/pan exploration, and its bounds — Ω(XY+n), O(Y(X+n)) for
// the sweep line — count the points that can reach the raster, not the
// archive: a zoomed view must cost what its own points cost.
func RunC9(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.UniformCSR(rng, cfg.scale(1000000), studyBox)
	// On this finite kernel naive scatters each row's band of the view's
	// points into the pixels they reach, Y·(n_view + footprint), on top of
	// the O(n) clip every method pays. It keeps the small raster it had as
	// the X·Y·n_view pixel-major sum; what is compared is each method with
	// itself across views.
	methods := []struct {
		name   string
		m      geostat.KDVMethod
		pixels int
	}{
		{"naive (16²)", geostat.KDVNaive, 16},
		{"grid-cutoff (256²)", geostat.KDVGridCutoff, 256},
		{"sweep-line (256²)", geostat.KDVSweepLine, 256},
	}
	tb := newTable("view area", "points in view", methods[0].name, methods[1].name, methods[2].name)
	full := make([]time.Duration, len(methods))
	side := studyBox.Width()
	for _, div := range []int{1, 2, 4, 8} { // view side = box side / div, centred
		w := side / float64(div)
		lo := studyBox.MinX + (side-w)/2
		view := geostat.BBox{MinX: lo, MinY: lo, MaxX: lo + w, MaxY: lo + w}
		// The bandwidth shrinks with the view, as in a tile pyramid: the
		// kernel keeps its size in pixels, so a row's band holds the same
		// share of the view's points at every zoom level.
		k := geostat.MustKernel(geostat.Quartic, 2/float64(div))
		row := []any{fmt.Sprintf("1/%d", div*div), ""}
		for mi, m := range methods {
			opt := geostat.KDVOptions{Kernel: k, Grid: geostat.NewPixelGrid(view, m.pixels, m.pixels), Method: m.m, Workers: cfg.workers()}
			var runErr error
			// Each method starts from a collected heap, so it is not charged
			// for the garbage the method timed before it left behind.
			runtime.GC()
			t := medianOf3(func() { _, runErr = geostat.KDVDataset(d, opt) })
			if runErr != nil {
				return fmt.Errorf("C9: %s: %w", m.name, runErr)
			}
			if div == 1 {
				full[mi] = t
				row = append(row, t.String())
			} else {
				row = append(row, fmt.Sprintf("%v (%.2f of full)", t, float64(t)/float64(full[mi])))
			}
			if div == 8 && m.m != geostat.KDVGridCutoff && 4*t > full[mi] {
				return fmt.Errorf("C9: %s costs %v on 1/64 of the box, over a quarter of its %v on the whole box: cost does not follow the view",
					m.name, t, full[mi])
			}
			if mi == 0 {
				// What a trace reports as kde.index_build points_in_view.
				inView := d.Columns().FilterBox(opt.Grid.SupportBox(geostat.GridWindow{}, k.SupportRadius())).N()
				row[1] = fmt.Sprintf("%d (%.1f%%)", inView, 100*float64(inView)/float64(d.N()))
			}
		}
		tb.add(row...)
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "bandwidth = 2% of the view side; points in view = inside the view padded by it; the X·Y term of grid-cutoff and sweep-line does not shrink with the view.")
	return nil
}
