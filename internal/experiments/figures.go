package experiments

import (
	"fmt"
	"math"

	"geostat"
	"geostat/internal/core"
)

var studyBox = geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}

// hkLikeOutbreak is the two-cluster synthetic stand-in for the Hong Kong
// COVID-19 dataset of Figures 1/5.
func hkLikeOutbreak(cfg *Config, n int) *geostat.Dataset {
	// Peak intensity scales with weight/σ², so the (30, 60) cluster is the
	// dominant hotspot (2/36 vs 0.4/16).
	return geostat.GaussianClusters(cfg.rng(), cfg.scale(n), studyBox, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 30, Y: 60}, Sigma: 6, Weight: 2},
		{Center: geostat.Point{X: 70, Y: 25}, Sigma: 4, Weight: 0.4},
	}, 0.15)
}

// RunT1 prints the tool coverage matrix of Table 1 and self-checks each
// tool by running it on a tiny dataset.
func RunT1(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.GaussianClusters(rng, 200, studyBox, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 50, Y: 50}, Sigma: 8, Weight: 1},
	}, 0.2)
	geostat.WithField(rng, d, func(p geostat.Point) float64 { return p.X + p.Y + 200 }, 1)
	grid := geostat.NewPixelGrid(studyBox, 16, 16)
	g := geostat.GridNetwork(4, 4, 10, geostat.Point{})
	events := geostat.RandomNetworkEventsRand(rng, g, 50)

	// Self-checks keyed by the inventory's tool names (internal/core is the
	// single source of truth for the taxonomy itself).
	checks := map[string]func() error{
		"KDV (Def. 1)": func() error {
			_, err := geostat.KDVDataset(d, geostat.KDVOptions{Kernel: geostat.MustKernel(geostat.Quartic, 10), Grid: grid})
			return err
		},
		"NKDV (§2.2)": func() error {
			_, err := geostat.NKDV(g, events, geostat.NKDVOptions{Kernel: geostat.MustKernel(geostat.Epanechnikov, 8), LixelLength: 3})
			return err
		},
		"STKDV (§2.2)": func() error {
			st := geostat.SpatioTemporalOutbreak(rng, 100, studyBox, 0, 10, nil, 1)
			_, err := geostat.STKDV(st, geostat.STKDVOptions{
				SpaceKernel: geostat.MustKernel(geostat.Quartic, 10),
				TimeKernel:  geostat.MustKernel(geostat.Epanechnikov, 3),
				Grid:        grid, Times: []float64{2, 5, 8},
			})
			return err
		},
		"IDW": func() error {
			_, err := geostat.IDWKNN(d, geostat.IDWOptions{Grid: grid, Power: 2}, 8)
			return err
		},
		"Kriging": func() error {
			bins, err := geostat.EmpiricalVariogram(d, 30, 10)
			if err != nil {
				return err
			}
			v, err := geostat.FitVariogram(bins, geostat.SphericalModel)
			if err != nil {
				return err
			}
			_, err = geostat.Krige(d, geostat.KrigingOptions{Grid: grid, Variogram: v, Neighbors: 10})
			return err
		},
		"K-function (Def. 2)": func() error {
			_, err := geostat.KFunctionCurve(d, []float64{5, 10}, 0)
			return err
		},
		"network K-function (§2.3)": func() error {
			_, err := geostat.NetworkKFunctionCurve(g, events, []float64{5, 10}, 0)
			return err
		},
		"spatiotemporal K (Eq. 8)": func() error {
			st := geostat.SpatioTemporalOutbreak(rng, 100, studyBox, 0, 10, nil, 1)
			_, err := geostat.STKFunctionSurface(st, []float64{5}, []float64{2}, 0)
			return err
		},
		"Moran's I": func() error {
			w, err := geostat.KNNWeightsDataset(d, 6, -1)
			if err != nil {
				return err
			}
			_, err = geostat.MoranIOpt(d.Values(), w, geostat.MoranOptions{Perms: 19, Seed: rng.Int63(), Workers: -1})
			return err
		},
		"Getis-Ord General G / Gi*": func() error {
			w, err := geostat.DistanceBandWeightsDataset(d, 10, -1)
			if err != nil {
				return err
			}
			if _, gerr := geostat.GeneralGOpt(d.Values(), w, geostat.GetisOrdOptions{Perms: 19, Seed: cfg.Seed, Workers: -1}); gerr != nil {
				return gerr
			}
			_, err = geostat.LocalGStar(d.Values(), w)
			return err
		},
		"DBSCAN / k-means": func() error {
			if _, err := geostat.DBSCAN(d, 4, 5); err != nil {
				return err
			}
			_, err := geostat.KMeans(d, 2, 0, rng)
			return err
		},
	}

	tb := newTable("application type", "tool", "baseline", "accelerated", "self-check")
	failed := 0
	for _, tool := range core.Tools() {
		status := "ok"
		fn, ok := checks[tool.Name]
		switch {
		case !ok:
			status = "NO SELF-CHECK"
			failed++
		default:
			if err := fn(); err != nil {
				status = "FAIL: " + err.Error()
				failed++
			}
		}
		tb.add(string(tool.Category), tool.Name, tool.Baseline, tool.Accelerated, status)
	}
	tb.write(cfg.Out)
	if failed > 0 {
		return fmt.Errorf("T1: %d tool(s) failed their self-check", failed)
	}
	return nil
}

// RunT2 prints Table 2: each kernel's spot values and which accelerated
// KDV paths support it.
//
//lint:allow workersopt pure table printing; nothing to parallelise
func RunT2(cfg *Config) error {
	const b = 2.0
	tb := newTable("kernel", "K(0)", "K(b/2)", "K(b)", "finite support", "sweep-line", "grid-cutoff", "bound-approx")
	for _, kt := range geostat.AllKernels() {
		k := geostat.MustKernel(kt, b)
		yes := func(v bool) string {
			if v {
				return "yes"
			}
			return "no"
		}
		tb.add(kt.String(), k.Eval(0), k.Eval(b/2), k.Eval(b),
			yes(k.FiniteSupport()), yes(geostat.SweepLineSupports(kt)), yes(k.FiniteSupport()), "yes")
	}
	tb.write(cfg.Out)
	return nil
}

// RunF1 renders the Figure 1 heatmap and reports the recovered hotspot.
func RunF1(cfg *Config) error {
	d := hkLikeOutbreak(cfg, 20000)
	grid := geostat.NewPixelGrid(studyBox, 256, 256)
	hm, err := geostat.KDVDataset(d, geostat.KDVOptions{
		Kernel:  geostat.MustKernel(geostat.Quartic, 6),
		Grid:    grid,
		Workers: cfg.workers(),
	})
	if err != nil {
		return err
	}
	ix, iy, peak := hm.ArgMax()
	hot := grid.Center(ix, iy)
	fmt.Fprintf(cfg.Out, "n=%d pixels=%dx%d kernel=quartic b=6\n", d.N(), grid.NX, grid.NY)
	fmt.Fprintf(cfg.Out, "hotspot pixel: (%.1f, %.1f) density %.1f — planted dominant cluster at (30, 60)\n", hot.X, hot.Y, peak)
	if hot.Dist(geostat.Point{X: 30, Y: 60}) > 10 {
		return fmt.Errorf("F1: hotspot %.1f,%.1f not at the planted cluster", hot.X, hot.Y)
	}
	if path, ok := cfg.artifact("f1_heatmap.png"); ok {
		if err := hm.WritePNGFile(path, geostat.HeatRamp); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "wrote %s\n", path)
	}
	return nil
}

// RunF2 regenerates the Figure 2 K-function plot for the three regimes.
func RunF2(cfg *Config) error {
	rng := cfg.rng()
	n := cfg.scale(2000)
	thresholds := []float64{1, 2, 3, 4, 5, 6, 8, 10, 12}
	datasets := []struct {
		name string
		pts  []geostat.Point
	}{
		{"clustered (Matérn)", clusteredN(cfg, n)},
		{"random (CSR)", geostat.UniformCSR(rng, n, studyBox).Points()},
		{"dispersed (inhibition)", geostat.Dispersed(rng, n, studyBox, 1.8).Points()},
	}
	for _, ds := range datasets {
		plot, err := geostat.KFunctionPlot(ds.pts, geostat.KPlotOptions{
			Thresholds:  thresholds,
			Simulations: 39,
			Window:      studyBox,
			Workers:     cfg.workers(),
		}, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "\n%s (n=%d, L=%d simulations)\n", ds.name, len(ds.pts), plot.Sim)
		tb := newTable("s", "K(s)", "L(s)=min", "U(s)=max", "regime")
		for i, s := range plot.S {
			tb.add(s, plot.K[i], plot.Lo[i], plot.Hi[i], plot.RegimeAt(i).String())
		}
		tb.write(cfg.Out)
	}
	return nil
}

func clusteredN(cfg *Config, n int) []geostat.Point {
	pts := geostat.MaternCluster(cfg.rng(), studyBox, 0.004, 25, 3).Points()
	for len(pts) < n {
		extra := geostat.MaternCluster(cfg.rng(), studyBox, 0.004, 25, 3)
		pts = append(pts, extra.Points()...)
	}
	return pts[:n]
}

// RunF3 reproduces Figure 3: two probes that are planar-close but
// network-far, with the NKDV density ratio and a lixel-length ablation.
func RunF3(cfg *Config) error {
	// Two parallel roads joined at one end; events at the far end of the
	// bottom road.
	b := geostat.NewNetworkBuilder()
	a0 := b.AddNode(geostat.Point{X: 0, Y: 0})
	a1 := b.AddNode(geostat.Point{X: 60, Y: 0})
	c0 := b.AddNode(geostat.Point{X: 0, Y: 2})
	c1 := b.AddNode(geostat.Point{X: 60, Y: 2})
	b.AddEdge(a0, a1)
	b.AddEdge(c0, c1)
	b.AddEdge(a0, c0)
	g, err := b.Build()
	if err != nil {
		return err
	}
	var events []geostat.NetworkPosition
	for i := 0; i < 20; i++ {
		events = append(events, geostat.NetworkPosition{Edge: 0, Offset: 45 + 0.5*float64(i)})
	}
	q1 := geostat.Point{X: 50, Y: 0} // on the events' road
	q2 := geostat.Point{X: 50, Y: 2} // planar-close, network-far

	// Planar KDV density at both probes.
	planarPts := make([]geostat.Point, len(events))
	for i, ev := range events {
		planarPts[i] = geostat.Point{X: 45 + 0.5*float64(i), Y: 0}
		_ = ev
	}
	k := geostat.MustKernel(geostat.Epanechnikov, 10)
	planar := func(q geostat.Point) float64 {
		s := 0.0
		for _, p := range planarPts {
			s += k.Eval2(q.Dist2(p))
		}
		return s
	}
	fmt.Fprintf(cfg.Out, "planar KDV:  F(q1)=%.3f  F(q2)=%.3f  (ratio %.2f — Euclidean distance overestimates q2)\n",
		planar(q1), planar(q2), planar(q2)/planar(q1))

	tb := newTable("lixel length", "lixels", "F(q1) network", "F(q2) network")
	for _, ll := range []float64{4, 2, 1, 0.5} {
		surf, err := geostat.NKDV(g, events, geostat.NKDVOptions{Kernel: k, LixelLength: ll, Workers: cfg.workers()})
		if err != nil {
			return err
		}
		f1, f2 := densityAt(g, surf, q1), densityAt(g, surf, q2)
		tb.add(ll, len(surf.Lixels), f1, f2)
		if f2 >= f1/2 {
			return fmt.Errorf("F3: network density at q2 (%v) not far below q1 (%v)", f2, f1)
		}
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "network KDV assigns q2 ~zero density at every lixel resolution (Figure 3's point).")
	return nil
}

// densityAt returns the NKDV value of the lixel whose center is nearest to
// the planar point q.
func densityAt(g *geostat.RoadNetwork, s *geostat.NKDVSurface, q geostat.Point) float64 {
	pos, _ := geostat.SnapToNetwork(g, q)
	best, bestD := 0.0, math.Inf(1)
	for i, l := range s.Lixels {
		if l.Edge != pos.Edge {
			continue
		}
		if d := math.Abs(l.Center() - pos.Offset); d < bestD {
			bestD = d
			best = s.Values[i]
		}
	}
	return best
}

// RunF4 renders the Figure 4 pair of STKDV slices and reports hotspot
// drift.
func RunF4(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.SpatioTemporalOutbreak(rng, cfg.scale(20000), studyBox, 0, 60, []geostat.OutbreakWave{
		{Center: geostat.Point{X: 25, Y: 30}, Sigma: 6, TimeMean: 15, TimeSigma: 5, Weight: 1},
		{Center: geostat.Point{X: 70, Y: 70}, Sigma: 6, TimeMean: 45, TimeSigma: 5, Weight: 1.2},
	}, 0.1)
	opt := geostat.STKDVOptions{
		SpaceKernel: geostat.MustKernel(geostat.Quartic, 8),
		TimeKernel:  geostat.MustKernel(geostat.Epanechnikov, 8),
		Grid:        geostat.NewPixelGrid(studyBox, 128, 128),
		Times:       []float64{15, 45},
		Workers:     cfg.workers(),
	}
	cube, err := geostat.STKDV(d, opt)
	if err != nil {
		return err
	}
	tb := newTable("slice time", "hotspot x", "hotspot y", "peak density", "planted wave")
	for i, ts := range opt.Times {
		ix, iy, peak := cube.Slice(i).ArgMax()
		c := opt.Grid.Center(ix, iy)
		wave := "(25, 30) @ t=15"
		if i == 1 {
			wave = "(70, 70) @ t=45"
		}
		tb.add(ts, c.X, c.Y, peak, wave)
		if path, ok := cfg.artifact(fmt.Sprintf("f4_slice_t%.0f.png", ts)); ok {
			if err := cube.Slice(i).WritePNGFile(path, geostat.HeatRamp); err != nil {
				return err
			}
		}
	}
	tb.write(cfg.Out)
	return nil
}

// RunF5 runs the end-to-end Figure 5 pipeline: dataset → CSV → read back →
// KDV → PNG (what cmd/kdv does as a binary).
func RunF5(cfg *Config) error {
	d := hkLikeOutbreak(cfg, 10000)
	csvPath, ok := cfg.artifact("f5_events.csv")
	if !ok {
		fmt.Fprintln(cfg.Out, "skipped (no artifact dir): set -dir to exercise the full CSV→PNG pipeline")
		return nil
	}
	if err := geostat.WriteCSVFile(csvPath, d); err != nil {
		return err
	}
	back, err := geostat.ReadCSVFile(csvPath)
	if err != nil {
		return err
	}
	hm, err := geostat.KDVDataset(back, geostat.KDVOptions{
		Kernel:  geostat.MustKernel(geostat.Quartic, 6),
		Grid:    geostat.NewPixelGrid(back.Bounds(), 256, 256),
		Workers: cfg.workers(),
	})
	if err != nil {
		return err
	}
	pngPath, _ := cfg.artifact("f5_hotspot_map.png")
	if err := hm.WritePNGFile(pngPath, geostat.HeatRamp); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "pipeline: %d events -> %s -> %s\n", back.N(), csvPath, pngPath)
	return nil
}

// RunF6 prints the Figure 6 spatiotemporal K-function surface with
// envelope classification.
func RunF6(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.SpatioTemporalOutbreak(rng, cfg.scale(1500), studyBox, 0, 60, []geostat.OutbreakWave{
		{Center: geostat.Point{X: 25, Y: 30}, Sigma: 5, TimeMean: 15, TimeSigma: 4, Weight: 1},
		{Center: geostat.Point{X: 70, Y: 70}, Sigma: 5, TimeMean: 45, TimeSigma: 4, Weight: 1},
	}, 0.15)
	sTh := []float64{2, 4, 8, 16}
	tTh := []float64{2, 5, 10, 20}
	plot, err := geostat.STKFunctionPlot(d, sTh, tTh, 19, -1, rng)
	if err != nil {
		return err
	}
	tb := newTable("s \\ t", "t=2", "t=5", "t=10", "t=20")
	for a, s := range sTh {
		cells := make([]any, 0, 5)
		cells = append(cells, fmt.Sprintf("s=%g", s))
		for b := range tTh {
			k, lo, hi := plot.At(a, b)
			cells = append(cells, fmt.Sprintf("%.0f [%.0f,%.0f] %s", k, lo, hi, plot.RegimeAt(a, b).String()))
		}
		tb.add(cells...)
	}
	tb.write(cfg.Out)
	if plot.RegimeAt(0, 0) != geostat.RegimeClustered {
		return fmt.Errorf("F6: outbreak not clustered at the smallest (s,t)")
	}
	fmt.Fprintln(cfg.Out, "two-wave outbreak reads 'clustered' at small (s,t): space-time interaction detected.")
	return nil
}
