package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"geostat"
	"geostat/internal/obs"
	"geostat/internal/parallel"
	"geostat/internal/serve"
	"geostat/internal/shard"
)

// The probe suite times each module's public functions from outside, one
// module at a time and with nothing else running. Its numbers say which
// layer moved when an end-to-end metric moves; they are not gated.

// timeMS runs fn once untimed, then reps times, and returns the median
// duration in milliseconds. The first error stops it.
func timeMS(reps int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms), nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

type probeSet struct {
	ctx context.Context
	sz  sizes
	out map[string]float64
	err error
}

// time records the median of fn under name; after a first error it does
// nothing, so a probe sequence reads straight through.
func (p *probeSet) time(name string, reps int, fn func() error) float64 {
	if p.err != nil {
		return 0
	}
	ms, err := timeMS(reps, fn)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return 0
	}
	p.out[name] = ms
	return ms
}

// runProbes fills out with every probe metric. seed picks the datasets.
func runProbes(ctx context.Context, seed int64, sz sizes, out map[string]float64) error {
	p := &probeSet{ctx: ctx, sz: sz, out: out}
	big := clustered(seed, sz.probeN)
	survey := withSurveyField(seed, clustered(seed, sz.probeKN))
	p.kernelProbes()
	p.kdeProbes(big)
	p.parallelProbes(big, survey)
	p.datasetProbes(seed, big, survey)
	p.toolProbes(survey)
	p.serveProbes(big, survey)
	p.shardProbes(seed)
	return p.err
}

func (p *probeSet) kernelProbes() {
	for _, name := range []string{"quartic", "triangular", "gaussian"} {
		kt, err := geostat.ParseKernel(name)
		if err != nil {
			p.err = err
			return
		}
		k := geostat.MustKernel(kt, 2)
		n := p.sz.probeEvals
		ms := p.time("kernel.eval_ns."+name, 3, func() error {
			s := 0.0
			for i := 0; i < n; i++ {
				s += k.Eval2(float64(i&1023) * (4.0 / 1024)) // d² sweeps [0, b²)
			}
			sink += s
			return nil
		})
		p.out["kernel.eval_ns."+name] = ms * 1e6 / float64(n)
	}
}

// probeSpecs are the lib_kdv classes on the full box at bandwidth 2.
func probeSpecs() map[string]kdvSpec {
	m := make(map[string]kdvSpec)
	for _, c := range libClasses {
		s := libVariants(c.class)[0]
		s.Bandwidth = 2
		m[c.class] = s
	}
	return m
}

func (p *probeSet) kdv(d *geostat.Dataset, s kdvSpec, workers int) func() error {
	return func() error {
		opt, err := s.options()
		if err != nil {
			return err
		}
		opt.Workers = workers
		g, err := geostat.KDVDatasetCtx(p.ctx, d, opt)
		if err == nil {
			sink += g.Values[0]
		}
		return err
	}
}

func (p *probeSet) kdeProbes(big *geostat.Dataset) {
	specs := probeSpecs()
	for _, c := range libClasses {
		p.time("kde."+c.class+"_ms", 3, p.kdv(big, specs[c.class], -1))
	}
	if p.err != nil {
		return
	}
	// Computed pair rate of the unprunable naive evaluation: X·Y·n ÷ time.
	ng := specs["naive_gauss"]
	p.out["kde.naive_gpairs_per_s"] = float64(ng.NX*ng.NY) * float64(big.N()) / (p.out["kde.naive_gauss_ms"] / 1e3) / 1e9

	// One 64² window of a 256² raster over its halo subset: the shard
	// workers' unit of work.
	k := geostat.MustKernel(geostat.Quartic, 2)
	grid := geostat.NewPixelGrid(studyBox, 256, 256)
	win := geostat.GridWindow{X0: 64, Y0: 64, NX: 64, NY: 64}
	sub := big.FilterBox(grid.WindowBox(win).Pad(k.SupportRadius()))
	p.time("kde.window_ms", 3, func() error {
		g, err := geostat.KDVDatasetCtx(p.ctx, sub, geostat.KDVOptions{Kernel: k, Grid: grid, Method: geostat.KDVNaive, Workers: -1, Window: win})
		if err == nil {
			sink += g.Values[0]
		}
		return err
	})

	// Error reached ÷ error allowed for the two approximate methods.
	for _, nc := range [][2]string{{"kde.approx_max_rel_err", "bound_approx"}, {"kde.sampled_err_frac", "sampled"}} {
		name, s := nc[0], specs[nc[1]]
		opt, err := s.options()
		if err != nil {
			p.err = err
			return
		}
		g, err := geostat.KDVDatasetCtx(p.ctx, big, opt)
		if err != nil {
			p.err = err
			return
		}
		frac, err := checkAgainstRef(big, s, samplePixels(1, g.Values))
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return
		}
		p.out[name] = frac
	}

	// KDVDatasetCtx under an obs trace ÷ without one.
	sw := specs["sweep"]
	plain := p.time("obs.kdv_overhead_ratio", 5, p.kdv(big, sw, -1))
	traced := p.time("obs.kdv_overhead_ratio", 5, func() error {
		tctx, root := obs.NewTrace(p.ctx, "probe")
		defer root.End()
		opt, err := sw.options()
		if err != nil {
			return err
		}
		g, err := geostat.KDVDatasetCtx(tctx, big, opt)
		if err == nil {
			sink += g.Values[0]
		}
		return err
	})
	if plain > 0 {
		p.out["obs.kdv_overhead_ratio"] = traced / plain
	}
}

func (p *probeSet) parallelProbes(big, survey *geostat.Dataset) {
	// Empty-body ForRangeCtx: what handing out one chunk costs.
	const n = 1 << 20
	var chunks atomic.Int64
	if err := parallel.ForRangeCtx(p.ctx, n, -1, func(lo, hi int) { chunks.Add(1) }); err != nil {
		p.err = err
		return
	}
	ms := p.time("parallel.dispatch_ns_per_chunk", 5, func() error {
		return parallel.ForRangeCtx(p.ctx, n, -1, func(lo, hi int) {})
	})
	p.out["parallel.dispatch_ns_per_chunk"] = ms * 1e6 / float64(chunks.Load())

	// Speed-up = t(Workers=1) ÷ t(Workers=-1); the serial time is kept
	// beside it so the ratio always has its base.
	specs := probeSpecs()
	for _, nc := range [][2]string{{"sweep", "sweep"}, {"cutoff", "cutoff"}, {"naive", "naive_finite"}} {
		name, class := nc[0], nc[1]
		serial := p.time("parallel.serial_ms."+name, 3, p.kdv(big, specs[class], 1))
		par := p.time("parallel.speedup."+name, 3, p.kdv(big, specs[class], -1))
		if par > 0 {
			p.out["parallel.speedup."+name] = serial / par
		}
	}
	pts := survey.Points()
	kplot := func(workers int) func() error {
		return func() error {
			_, err := geostat.KFunctionPlot(pts, geostat.KPlotOptions{
				Thresholds: kThresholds(), Simulations: 19, Workers: workers, Ctx: p.ctx}, geostat.NewRand(1))
			return err
		}
	}
	serial := p.time("parallel.serial_ms.kplot", 3, kplot(1))
	par := p.time("parallel.speedup.kplot", 3, kplot(-1))
	if par > 0 {
		p.out["parallel.speedup.kplot"] = serial / par
	}
}

// kThresholds is smax=2, steps=10: the serve_mixed K-function request.
func kThresholds() []float64 {
	th := make([]float64, 10)
	for i := range th {
		th[i] = 2 * float64(i+1) / 10
	}
	return th
}

func (p *probeSet) datasetProbes(seed int64, big, survey *geostat.Dataset) {
	p.time("dataset.generate_ms", 3, func() error {
		sink += float64(clustered(seed, p.sz.probeN).N())
		return nil
	})
	var csv []byte
	ms := p.time("dataset.csv_write_mb_per_s", 3, func() error {
		var err error
		csv, err = csvBytes(big)
		return err
	})
	mb := float64(len(csv)) / (1 << 20)
	if ms > 0 {
		p.out["dataset.csv_write_mb_per_s"] = mb / (ms / 1e3)
	}
	ms = p.time("dataset.csv_read_mb_per_s", 3, func() error {
		_, err := geostat.ReadCSV(bytes.NewReader(csv))
		return err
	})
	if ms > 0 {
		p.out["dataset.csv_read_mb_per_s"] = mb / (ms / 1e3)
	}
	p.time("dataset.points_copy_ms", 5, func() error {
		sink += big.Points()[0].X
		return nil
	})
	p.time("dataset.digest_ms", 3, func() error {
		// A fresh dataset every time: the digest of one is computed once.
		sink += float64(len(geostat.FromPoints(big.Points()).Digest()))
		return nil
	})
	gj, err := geojsonBytes(survey)
	if err != nil {
		p.err = err
		return
	}
	ms = p.time("geojson.parse_mb_per_s", 3, func() error {
		_, perr := geostat.ParseGeoJSON(gj)
		return perr
	})
	if ms > 0 {
		p.out["geojson.parse_mb_per_s"] = float64(len(gj)) / (1 << 20) / (ms / 1e3)
	}
}

func (p *probeSet) toolProbes(survey *geostat.Dataset) {
	pts := survey.Points()
	p.time("kfunc.plot_ms", 3, func() error {
		_, err := geostat.KFunctionPlot(pts, geostat.KPlotOptions{
			Thresholds: kThresholds(), Simulations: 19, Workers: -1, Ctx: p.ctx}, geostat.NewRand(1))
		return err
	})
	p.time("kfunc.curve_ms", 3, func() error {
		_, err := geostat.KFunctionCurveCtx(p.ctx, pts, kThresholds(), -1)
		return err
	})
	for _, c := range []struct {
		name  string
		count func([]geostat.Point, float64) int
	}{
		{"grid", geostat.KFunction}, {"kdtree", geostat.KFunctionKDTree},
		{"balltree", geostat.KFunctionBallTree}, {"rtree", geostat.KFunctionRTree},
	} {
		p.time("kfunc.count_ms."+c.name, 3, func() error {
			sink += float64(c.count(pts, 2))
			return nil
		})
	}
	idwOpt := func(px int) geostat.IDWOptions {
		return geostat.IDWOptions{Grid: geostat.NewPixelGrid(studyBox, px, px), Power: 2, Workers: -1, Ctx: p.ctx}
	}
	p.time("idw.knn_ms", 3, func() error {
		_, err := geostat.IDWKNN(survey, idwOpt(64), 8)
		return err
	})
	p.time("idw.naive_ms", 3, func() error {
		_, err := geostat.IDW(survey, idwOpt(16))
		return err
	})
	var w *geostat.SpatialWeights
	p.time("weights.knn_ms", 3, func() error {
		var err error
		w, err = geostat.KNNWeightsWorkers(pts, 8, -1)
		return err
	})
	if p.err != nil {
		return
	}
	w.RowStandardize()
	p.time("moran.perm_ms", 3, func() error {
		_, err := geostat.MoranIOpt(survey.Values(), w, geostat.MoranOptions{Perms: 99, Seed: 1, Workers: -1, Ctx: p.ctx})
		return err
	})
}

func (p *probeSet) serveProbes(big, survey *geostat.Dataset) {
	// Encoders on a tile-sized raster.
	px := p.sz.probePixels
	g, _, err := replayKDV(p.ctx, big, kdvSpec{Kernel: "quartic", Bandwidth: 2, Method: "auto", Box: studyBox, NX: px, NY: px}, "png", "big")
	if err != nil {
		p.err = err
		return
	}
	for _, format := range []string{"png", "json"} {
		p.time("serve.encode_"+format+"_ms", 3, func() error {
			_, eerr := encodeHeatmap(g, format, "big", "auto")
			return eerr
		})
	}
	p.out["raster.png_ms"] = p.out["serve.encode_png_ms"] // the PNG encode is WritePNG and nothing else

	// The cache alone: 32 KiB values, half the keys resident.
	cache := serve.NewCache(64 << 20)
	val := serve.Value{Body: make([]byte, 32<<10), ContentType: "image/png"}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("kdv|city@1|tile=%d", i)
	}
	ms := p.time("serve.cache_put_ns", 5, func() error {
		for _, k := range keys {
			cache.Put(k, val)
		}
		return nil
	})
	p.out["serve.cache_put_ns"] = ms * 1e6 / float64(len(keys))
	ms = p.time("serve.cache_get_ns", 5, func() error {
		for _, k := range keys {
			v, _ := cache.Get(k)
			sink += float64(len(v.Body))
		}
		return nil
	})
	p.out["serve.cache_get_ns"] = ms * 1e6 / float64(len(keys))

	// The handler without TCP: ServeHTTP into a recorder.
	srv := serve.NewServer(serve.Config{CacheBytes: 64 << 20, Workers: -1})
	call := func(method, target string, body []byte) error {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(p.ctx))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %.200s", method, target, rr.Code, rr.Body.Bytes())
		}
		return nil
	}
	csv, err := csvBytes(survey)
	if err == nil {
		var gj []byte
		if gj, err = geojsonBytes(survey); err == nil {
			p.time("serve.upload_csv_ms", 3, func() error { return call("POST", "/v1/datasets/survey", csv) })
			p.time("serve.upload_geojson_ms", 3, func() error { return call("POST", "/v1/datasets/survey", gj) })
		}
	}
	if err != nil {
		p.err = err
		return
	}
	hitURL := kdvURL("survey", kdvSpec{Kernel: "quartic", Bandwidth: 2, Method: "auto", Box: studyBox, NX: 64, NY: 64}, "png")
	const hits = 256
	ms = p.time("serve.handler_hit_us", 5, func() error {
		for i := 0; i < hits; i++ {
			if herr := call("GET", hitURL, nil); herr != nil {
				return herr
			}
		}
		return nil
	})
	p.out["serve.handler_hit_us"] = ms * 1e3 / hits
}

func (p *probeSet) shardProbes(seed int64) {
	d := clustered(seed, p.sz.shardN)
	req, err := shardRequest(kdvSpec{Kernel: "quartic", Bandwidth: 2, Method: "auto", Box: studyBox, NX: shardPixels, NY: shardPixels}, shardTiles)
	if err != nil {
		p.err = err
		return
	}
	p.time("shard.plan_ms", 3, func() error {
		_, perr := shard.PlanKDV(d, "probe", req)
		return perr
	})
}
