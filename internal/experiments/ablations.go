package experiments

import (
	"fmt"
	"math"

	"geostat"
)

// Ablations for the design choices DESIGN.md calls out, beyond the paper's
// own artifacts: A1 bandwidth-exploration sharing, A2 adaptive vs fixed
// bandwidth, A3 equal-split vs plain network kernels.

// RunA1 measures the SAFE-style multi-bandwidth sharing: the bandwidth
// exploration workload (m bandwidths below a common b_max) computed by one
// shared support scan vs m independent per-bandwidth scans (GridCutoff).
// The sweep line is shown for context: it is this repository's fastest
// per-bandwidth exact method and bounds what any scan-sharing can achieve.
func RunA1(cfg *Config) error {
	d := hkLikeOutbreak(cfg, 60000)
	grid := geostat.NewPixelGrid(studyBox, 128, 128)
	bandwidths := []float64{9, 10, 11, 12, 13, 14, 15, 16}
	tb := newTable("bandwidths m", "cutoff ×m", "sweep-line ×m", "shared one-pass", "speedup vs cutoff")
	for _, m := range []int{2, 4, 8} {
		bw := bandwidths[:m]
		runEach := func(method geostat.KDVMethod) func() {
			return func() {
				for _, b := range bw {
					if _, err := geostat.KDVDataset(d, geostat.KDVOptions{
						Kernel: geostat.MustKernel(geostat.Quartic, b), Grid: grid, Method: method,
					}); err != nil {
						panic(err)
					}
				}
			}
		}
		tCutoff := medianOf3(runEach(geostat.KDVGridCutoff))
		tSweep := medianOf3(runEach(geostat.KDVSweepLine))
		var shared []*geostat.Heatmap
		tShared := medianOf3(func() {
			var err error
			shared, err = geostat.KDVMultiBandwidth(d, grid, geostat.Quartic, bw, 0)
			if err != nil {
				panic(err)
			}
		})
		// Exactness check at the largest bandwidth.
		want, err := geostat.KDVDataset(d, geostat.KDVOptions{
			Kernel: geostat.MustKernel(geostat.Quartic, bw[m-1]), Grid: grid,
		})
		if err != nil {
			return err
		}
		diff, _ := shared[m-1].MaxAbsDiff(want)
		_, peak := want.MinMax()
		if diff > 1e-9*(1+peak) {
			return fmt.Errorf("A1: shared surface differs by %v", diff)
		}
		tb.add(m, tCutoff, tSweep, tShared, speedup(tCutoff, tShared))
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "shared pays one b_max scan regardless of m; per-bandwidth scans pay Σ b_i² of work.")
	fmt.Fprintln(cfg.Out, "(the SLAM-style sweep line remains the best per-bandwidth method — sharing helps scan-based evaluation.)")
	return nil
}

// RunA2 contrasts fixed-bandwidth and adaptive KDV on data whose clusters
// have very different scales: the fixed bandwidth either blurs the tight
// cluster or fragments the wide one; the adaptive surface resolves both.
func RunA2(cfg *Config) error {
	rng := cfg.rng()
	d := geostat.GaussianClusters(rng, cfg.scale(20000), studyBox, []geostat.GaussianCluster{
		{Center: geostat.Point{X: 25, Y: 50}, Sigma: 1.5, Weight: 1}, // tight
		{Center: geostat.Point{X: 70, Y: 50}, Sigma: 12, Weight: 1},  // wide
	}, 0.1)
	grid := geostat.NewPixelGrid(studyBox, 128, 128)
	bw, err := geostat.AdaptiveBandwidths(d, 16, 1.0, 1.0)
	if err != nil {
		return err
	}
	adaptive, err := geostat.KDVAdaptive(d, bw, geostat.Quartic, grid, -1)
	if err != nil {
		return err
	}
	tb := newTable("surface", "peak x", "peak y", "peak/median contrast")
	report := func(name string, hm *geostat.Heatmap) {
		ix, iy, peak := hm.ArgMax()
		c := grid.Center(ix, iy)
		tb.add(name, c.X, c.Y, peak/medianPositive(hm.Values))
	}
	for _, b := range []float64{2, 12} {
		fixed, err := geostat.KDVDataset(d, geostat.KDVOptions{
			Kernel: geostat.MustKernel(geostat.Quartic, b), Grid: grid, Workers: cfg.workers(),
		})
		if err != nil {
			return err
		}
		report(fmt.Sprintf("fixed b=%g", b), fixed)
	}
	report("adaptive (k=16 pilot)", adaptive)
	tb.write(cfg.Out)
	minB, maxB := math.Inf(1), math.Inf(-1)
	for _, b := range bw {
		minB = math.Min(minB, b)
		maxB = math.Max(maxB, b)
	}
	fmt.Fprintf(cfg.Out, "pilot bandwidths span %.2f..%.2f: tight-cluster points sharpen, sparse points smooth.\n", minB, maxB)
	return nil
}

func medianPositive(vs []float64) float64 {
	var pos []float64
	for _, v := range vs {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return 1
	}
	// Selection by sorting a copy (raster sizes are small here).
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && pos[j] < pos[j-1]; j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos[len(pos)/2]
}

// RunA3 measures mass conservation of the equal-split network kernel vs
// the plain shortest-path kernel across intersection-rich networks.
func RunA3(cfg *Config) error {
	rng := cfg.rng()
	tb := newTable("network", "events", "expected mass", "plain kernel mass", "equal-split mass", "plain inflation")
	const bw = 8.0
	kernelMass := 4 * bw / 3 // 1-D Epanechnikov: ∫(1−t²/b²) over [−b, b]
	for _, tc := range []struct {
		name string
		g    *geostat.RoadNetwork
	}{
		{"grid 8x8 (degree 4)", geostat.GridNetwork(8, 8, 10, geostat.Point{})},
		{"ring-radial (hub degree 8)", geostat.RingRadialNetwork(4, 8, 10, geostat.Point{X: 50, Y: 50})},
	} {
		// Interior events only so no mass leaves the network.
		var events []geostat.NetworkPosition
		for len(events) < cfg.scale(300) {
			pos := geostat.RandomNetworkEventsRand(rng, tc.g, 1)[0]
			p := tc.g.PointAt(pos.Edge, pos.Offset)
			if p.Dist(geostat.Point{X: 35, Y: 35}) < 25 {
				events = append(events, pos)
			}
		}
		opt := geostat.NKDVOptions{Kernel: geostat.MustKernel(geostat.Epanechnikov, bw), LixelLength: 0.25}
		plain, err := geostat.NKDV(tc.g, events, opt)
		if err != nil {
			return err
		}
		esd, err := geostat.NKDVEqualSplit(tc.g, events, opt)
		if err != nil {
			return err
		}
		integrate := func(s *geostat.NKDVSurface) float64 {
			total := 0.0
			for i, l := range s.Lixels {
				total += s.Values[i] * l.Length()
			}
			return total
		}
		want := float64(len(events)) * kernelMass
		mPlain, mESD := integrate(plain), integrate(esd)
		tb.add(tc.name, len(events), want, mPlain, mESD, fmt.Sprintf("%.2fx", mPlain/want))
		if math.Abs(mESD-want)/want > 0.05 {
			return fmt.Errorf("A3: equal-split mass %v deviates from expected %v", mESD, want)
		}
	}
	tb.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "equal-split conserves kernel mass through intersections; the plain kernel inflates it.")
	return nil
}
