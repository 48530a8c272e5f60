// Command kdv renders a kernel density heatmap from a CSV of events — the
// end-to-end pipeline behind the paper's Figure 1/5 hotspot maps.
//
// Usage:
//
//	kdv -in events.csv -out heatmap.png -kernel quartic -bandwidth 6 \
//	    -width 512 -height 512 [-method auto] [-ascii]
//
// The input CSV needs an "x,y" header (extra t/value columns are ignored
// for the density itself).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"geostat"
)

func main() {
	var (
		in        = flag.String("in", "", "input CSV (header x,y[,t][,value])")
		out       = flag.String("out", "heatmap.png", "output PNG path")
		kernelArg = flag.String("kernel", "quartic", "kernel: uniform|triangular|epanechnikov|quartic|triweight|gaussian|cosine|exponential")
		bandwidth = flag.Float64("bandwidth", 0, "kernel bandwidth (0 = 5% of the longer bbox side)")
		width     = flag.Int("width", 512, "raster width in pixels")
		height    = flag.Int("height", 512, "raster height in pixels")
		method    = flag.String("method", "auto", "auto|naive|grid-cutoff|sweep-line|bound-approx|sampled")
		epsilon   = flag.Float64("epsilon", 0.05, "error parameter for approximate methods")
		workers   = flag.Int("workers", -1, "parallel workers (-1 = all cores)")
		ascii     = flag.Bool("ascii", false, "also print an ASCII rendering")
		gray      = flag.Bool("gray", false, "grayscale ramp instead of heat colors")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "kdv: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *out, *kernelArg, *method, *bandwidth, *epsilon, *width, *height, *workers, *ascii, *gray); err != nil {
		fmt.Fprintf(os.Stderr, "kdv: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out, kernelArg, methodArg string, bandwidth, epsilon float64, width, height, workers int, ascii, gray bool) error {
	d, err := geostat.ReadCSVFile(in)
	if err != nil {
		return err
	}
	if d.N() == 0 {
		return fmt.Errorf("no events in %s", in)
	}
	box := d.Bounds().Pad(1e-9)
	if bandwidth == 0 {
		// Silverman's normal-reference rule; fall back to 5% of the longer
		// side for degenerate data.
		if b, serr := geostat.SilvermanBandwidthDataset(d); serr == nil {
			bandwidth = b
		} else {
			side := box.Width()
			if box.Height() > side {
				side = box.Height()
			}
			bandwidth = side * 0.05
		}
		fmt.Printf("auto bandwidth: %.4g\n", bandwidth)
	}
	kt, err := geostat.ParseKernel(kernelArg)
	if err != nil {
		return err
	}
	k, err := geostat.NewKernel(kt, bandwidth)
	if err != nil {
		return err
	}
	m, err := geostat.ParseKDVMethod(methodArg)
	if err != nil {
		return err
	}
	opt := geostat.KDVOptions{
		Kernel:  k,
		Grid:    geostat.NewPixelGrid(box, width, height),
		Method:  m,
		Workers: workers,
		Epsilon: epsilon,
		Delta:   0.01,
		Seed:    1,
	}
	start := time.Now()
	hm, err := geostat.KDVDataset(d, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	ramp := geostat.HeatRamp
	if gray {
		ramp = geostat.GrayRamp
	}
	if err := hm.WritePNGFile(out, ramp); err != nil {
		return err
	}
	ix, iy, peak := hm.ArgMax()
	hot := opt.Grid.Center(ix, iy)
	fmt.Printf("%d events, %s kernel, bandwidth %.4g, %dx%d pixels, method %s: %v\n",
		d.N(), kt, bandwidth, width, height, m, elapsed.Round(time.Millisecond))
	fmt.Printf("hotspot at (%.4g, %.4g), peak density %.4g -> %s\n", hot.X, hot.Y, peak, out)
	if ascii {
		small := geostat.NewPixelGrid(box, 72, 28)
		sOpt := opt
		sOpt.Grid = small
		sm, err := geostat.KDVDataset(d, sOpt)
		if err != nil {
			return err
		}
		fmt.Print(sm.ASCII())
	}
	return nil
}
