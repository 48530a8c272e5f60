// Command kfunc computes a K-function plot (Definition 3 of the paper) for
// a CSV of events and prints the observed curve with Monte-Carlo envelopes
// and a clustered/random/dispersed verdict per threshold.
//
// Usage:
//
//	kfunc -in events.csv [-smax 12] [-steps 10] [-sims 39] [-csv plot.csv]
//
// With -temporal, events must carry a t column and the spatiotemporal
// K-function surface (Equation 8) is computed instead.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"geostat"
	"geostat/internal/kfunc"
)

func main() {
	var (
		in       = flag.String("in", "", "input CSV (header x,y[,t])")
		sMax     = flag.Float64("smax", 0, "largest spatial threshold (0 = 10% of the longer bbox side)")
		steps    = flag.Int("steps", 10, "number of thresholds")
		sims     = flag.Int("sims", 39, "number of CSR simulations for the envelope")
		seed     = flag.Int64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", -1, "parallel workers (-1 = all cores)")
		csvOut   = flag.String("csv", "", "also write the plot as CSV")
		temporal = flag.Bool("temporal", false, "compute the spatiotemporal K-function surface")
		tMax     = flag.Float64("tmax", 0, "largest temporal threshold (0 = 25% of the time range)")
		tSteps   = flag.Int("tsteps", 5, "number of temporal thresholds")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "kfunc: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *csvOut, *sMax, *tMax, *steps, *tSteps, *sims, *workers, *seed, *temporal); err != nil {
		fmt.Fprintf(os.Stderr, "kfunc: %v\n", err)
		os.Exit(1)
	}
}

func run(in, csvOut string, sMax, tMax float64, steps, tSteps, sims, workers int, seed int64, temporal bool) error {
	d, err := geostat.ReadCSVFile(in)
	if err != nil {
		return err
	}
	if d.N() < 2 {
		return fmt.Errorf("need at least 2 events, got %d", d.N())
	}
	box := d.Bounds()
	if sMax == 0 {
		side := box.Width()
		if box.Height() > side {
			side = box.Height()
		}
		sMax = side * 0.10
	}
	thresholds := make([]float64, steps)
	for i := range thresholds {
		thresholds[i] = sMax * float64(i+1) / float64(steps)
	}
	rng := geostat.NewRand(seed)
	start := time.Now()

	if temporal {
		return runTemporal(d, csvOut, thresholds, tMax, tSteps, sims, workers, rng, start)
	}

	// Closed-form CSR screens before the Monte-Carlo plot.
	if q, qerr := kfunc.QuadratTest(d.Columns(), box, 5, 5); qerr == nil {
		fmt.Printf("quadrat test (5x5): chi2=%.1f df=%d p=%.4f VMR=%.2f -> %s\n",
			q.ChiSquare, q.DF, q.P, q.VMR, q.Regime(0.05))
	}
	if ce, ceerr := kfunc.ClarkEvans(d.Columns(), box); ceerr == nil {
		fmt.Printf("Clark-Evans: R=%.3f z=%.1f p=%.4f -> %s\n", ce.R, ce.Z, ce.P, ce.Regime(0.05))
	}

	plot, err := geostat.KFunctionPlotDataset(d, geostat.KPlotOptions{
		Thresholds:  thresholds,
		Simulations: sims,
		Window:      box,
		Workers:     workers,
	}, rng)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d, window %.4g x %.4g, %d thresholds, L=%d simulations: %v\n",
		d.N(), box.Width(), box.Height(), steps, sims, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%10s %12s %12s %12s  %s\n", "s", "K(s)", "L(s)", "U(s)", "regime")
	for i, s := range plot.S {
		fmt.Printf("%10.4g %12.0f %12.0f %12.0f  %s\n", s, plot.K[i], plot.Lo[i], plot.Hi[i], plot.RegimeAt(i))
	}
	if csvOut != "" {
		if err := writePlotCSV(csvOut, plot); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvOut)
	}
	return nil
}

func runTemporal(d *geostat.Dataset, csvOut string, sThresholds []float64, tMax float64, tSteps, sims, workers int, rng *rand.Rand, start time.Time) error {
	if !d.HasTimes() {
		return fmt.Errorf("-temporal requires a t column in the CSV")
	}
	lo, hi, _ := d.TimeRange()
	if tMax == 0 {
		tMax = (hi - lo) * 0.25
	}
	tThresholds := make([]float64, tSteps)
	for i := range tThresholds {
		tThresholds[i] = tMax * float64(i+1) / float64(tSteps)
	}
	plot, err := geostat.STKFunctionPlot(d, sThresholds, tThresholds, sims, workers, rng)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d spatiotemporal events, %dx%d thresholds, L=%d simulations: %v\n",
		d.N(), len(sThresholds), tSteps, sims, time.Since(start).Round(time.Millisecond))
	fmt.Printf("%10s %10s %12s %12s %12s  %s\n", "s", "t", "K(s,t)", "L", "U", "regime")
	for a, s := range plot.S {
		for b, t := range plot.T {
			k, l, u := plot.At(a, b)
			fmt.Printf("%10.4g %10.4g %12.0f %12.0f %12.0f  %s\n", s, t, k, l, u, plot.RegimeAt(a, b))
		}
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		cw := csv.NewWriter(f)
		_ = cw.Write([]string{"s", "t", "k", "lo", "hi", "regime"})
		for a, s := range plot.S {
			for b, t := range plot.T {
				k, l, u := plot.At(a, b)
				_ = cw.Write([]string{
					fmtF(s), fmtF(t), fmtF(k), fmtF(l), fmtF(u), plot.RegimeAt(a, b).String(),
				})
			}
		}
		cw.Flush()
		return cw.Error()
	}
	return nil
}

func writePlotCSV(path string, plot *geostat.KPlot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"s", "k", "lo", "hi", "regime"}); err != nil {
		return err
	}
	for i, s := range plot.S {
		if err := cw.Write([]string{
			fmtF(s), fmtF(plot.K[i]), fmtF(plot.Lo[i]), fmtF(plot.Hi[i]), plot.RegimeAt(i).String(),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
