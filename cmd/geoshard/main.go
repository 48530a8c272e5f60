// Command geoshard runs one KDV or K-function computation over a fleet of
// geostatd workers — the scale-out path of ROADMAP item 1. A KDV raster is
// cut into tiles that fan out over the workers and merge into output
// bit-identical to a single-node run; a K-function plot is placed on the
// dataset's owner and computed there whole, as one request that retries
// and fails over to a replica like a tile.
//
// Usage:
//
//	geoshard -workers http://a:8090,http://b:8090 -in events.csv \
//	    -tool kdv -kernel quartic -bandwidth 6 -width 512 -height 512 \
//	    -tile 4x4 [-normalize] [-out heatmap.json]
//
//	geoshard -workers http://a:8090,http://b:8090 -in events.csv \
//	    -tool kfunction -smax 25 -steps 10 -sims 99 -seed 1
//
// The result is written as JSON (stdout by default) in exactly the shape a
// single geostatd would return for the equivalent request; a run summary
// goes to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"geostat"
	"geostat/internal/kernel"
	"geostat/internal/shard"
)

type options struct {
	workers     []string
	in          string
	name        string
	tool        string
	out         string
	replication int
	retries     int
	backoff     time.Duration
	timeout     time.Duration
	concurrency int

	// kdv
	kernelArg string
	bandwidth float64
	width     int
	height    int
	bbox      string
	tile      string
	normalize bool

	// kfunction
	smax  float64
	steps int
	sims  int
	seed  int64
}

func main() {
	var (
		opt        options
		workersArg = flag.String("workers", "", "comma-separated worker base URLs (required)")
	)
	flag.StringVar(&opt.in, "in", "", "input CSV (header x,y[,t][,value])")
	flag.StringVar(&opt.name, "name", "events", "logical dataset name (letters, digits, '-', '_', '.')")
	flag.StringVar(&opt.tool, "tool", "kdv", "kdv|kfunction")
	flag.StringVar(&opt.out, "out", "", "output JSON path (default stdout)")
	flag.IntVar(&opt.replication, "replication", 2, "replicas per tile dataset")
	flag.IntVar(&opt.retries, "retries", 2, "extra attempts per tile beyond the first")
	flag.DurationVar(&opt.backoff, "backoff", 50*time.Millisecond, "base retry delay (doubles per attempt)")
	flag.DurationVar(&opt.timeout, "timeout", 30*time.Second, "per-attempt timeout")
	flag.IntVar(&opt.concurrency, "concurrency", 0, "max in-flight tiles (0 = 2 per worker)")
	flag.StringVar(&opt.kernelArg, "kernel", "quartic", "finite-support kernel: uniform|triangular|epanechnikov|quartic|triweight|cosine")
	flag.Float64Var(&opt.bandwidth, "bandwidth", 0, "kernel bandwidth (0 = 5% of the longer bbox side)")
	flag.IntVar(&opt.width, "width", 512, "raster width in pixels")
	flag.IntVar(&opt.height, "height", 512, "raster height in pixels")
	flag.StringVar(&opt.bbox, "bbox", "", "minx,miny,maxx,maxy (default: data bounds)")
	flag.StringVar(&opt.tile, "tile", "2x2", "tile decomposition COLSxROWS")
	flag.BoolVar(&opt.normalize, "normalize", false, "scale the merged raster to a density")
	flag.Float64Var(&opt.smax, "smax", 0, "largest K-function distance band (0 = quarter bbox diagonal)")
	flag.IntVar(&opt.steps, "steps", 10, "number of distance bands")
	flag.IntVar(&opt.sims, "sims", 19, "Monte-Carlo envelope simulations")
	flag.Int64Var(&opt.seed, "seed", 1, "envelope simulation seed")
	flag.Parse()

	opt.workers = splitList(*workersArg)
	if len(opt.workers) == 0 || opt.in == "" {
		fmt.Fprintln(os.Stderr, "geoshard: -workers and -in are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(opt, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "geoshard: %v\n", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

func run(opt options, errw io.Writer) error {
	d, err := geostat.ReadCSVFile(opt.in)
	if err != nil {
		return err
	}
	if d.N() == 0 {
		return fmt.Errorf("no events in %s", opt.in)
	}
	c, err := shard.New(shard.Config{
		Workers:     opt.workers,
		Replication: opt.replication,
		Retries:     opt.retries,
		Backoff:     opt.backoff,
		Timeout:     opt.timeout,
		Concurrency: opt.concurrency,
	})
	if err != nil {
		return err
	}

	var (
		payload any
		units   string
		n       int
	)
	start := time.Now()
	switch opt.tool {
	case "kdv":
		payload, n, err = runKDV(c, d, opt)
		units = "tiles"
	case "kfunction":
		payload, n, err = runKFunc(c, d, opt)
		units = "bands"
	default:
		return fmt.Errorf("unknown tool %q (kdv|kfunction)", opt.tool)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	out := os.Stdout
	if opt.out != "" {
		f, ferr := os.Create(opt.out)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(payload); err != nil {
		return err
	}
	fmt.Fprintf(errw, "%d events, tool %s: %d %s over %d workers in %v\n",
		d.N(), opt.tool, n, units, len(opt.workers), elapsed.Round(time.Millisecond))
	return nil
}

func runKDV(c *shard.Coordinator, d *geostat.Dataset, opt options) (any, int, error) {
	kt, err := geostat.ParseKernel(opt.kernelArg)
	if err != nil {
		return nil, 0, err
	}
	box := d.Bounds().Pad(1e-9)
	if opt.bbox != "" {
		var b geostat.BBox
		if _, perr := fmt.Sscanf(opt.bbox, "%f,%f,%f,%f", &b.MinX, &b.MinY, &b.MaxX, &b.MaxY); perr != nil {
			return nil, 0, fmt.Errorf("bbox %q: want minx,miny,maxx,maxy", opt.bbox)
		}
		box = b
	}
	bw := opt.bandwidth
	if bw == 0 {
		side := box.Width()
		if box.Height() > side {
			side = box.Height()
		}
		bw = side * 0.05
	}
	k, err := kernel.New(kt, bw)
	if err != nil {
		return nil, 0, err
	}
	var tx, ty int
	if _, perr := fmt.Sscanf(opt.tile, "%dx%d", &tx, &ty); perr != nil {
		return nil, 0, fmt.Errorf("tile %q: want COLSxROWS, e.g. 4x4", opt.tile)
	}
	req := shard.KDVRequest{
		Kernel: k,
		Grid:   geostat.NewPixelGrid(box, opt.width, opt.height),
		TilesX: tx, TilesY: ty,
		Normalize: opt.normalize,
	}
	g, err := c.KDV(context.Background(), d, opt.name, req)
	if err != nil {
		return nil, 0, err
	}
	lo, hi := g.MinMax()
	return &shard.KDVResult{
		Dataset: opt.name,
		Method:  "naive",
		Width:   opt.width,
		Height:  opt.height,
		Min:     lo,
		Max:     hi,
		Sum:     g.Sum(),
		Values:  g.Values,
	}, tx * ty, nil
}

func runKFunc(c *shard.Coordinator, d *geostat.Dataset, opt options) (any, int, error) {
	smax := opt.smax
	if smax == 0 {
		b := d.Bounds()
		smax = math.Hypot(b.Width(), b.Height()) / 4
	}
	if opt.steps < 1 {
		return nil, 0, fmt.Errorf("steps must be positive")
	}
	// Same band derivation as geostatd's smax/steps default, so the merged
	// plot matches a single-node request for the same parameters.
	thresholds := make([]float64, opt.steps)
	for i := range thresholds {
		thresholds[i] = smax * float64(i+1) / float64(opt.steps)
	}
	req := shard.KFuncRequest{
		Thresholds: thresholds,
		Sims:       opt.sims,
		Seed:       opt.seed,
	}
	res, err := c.KFunction(context.Background(), d, opt.name, req)
	if err != nil {
		return nil, 0, err
	}
	return res, len(thresholds), nil
}
