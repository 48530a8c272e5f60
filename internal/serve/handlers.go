package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"geostat"
	"geostat/internal/dataset"
	"geostat/internal/geojson"
	"geostat/internal/obs"
	"geostat/internal/shard"
	"geostat/internal/weights"
)

// ---- dataset management ----

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	v, err := jsonValue(struct {
		Datasets []DatasetInfo `json:"datasets"`
	}{Datasets: s.reg.List()})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeValue(w, v, "none")
}

// handleUpload stores a dataset posted as CSV (header x,y[,t][,value]) or
// as a GeoJSON FeatureCollection of Point features (optional numeric "t"
// and "value" properties). The format is sniffed from the first byte: a
// JSON object means GeoJSON, anything else is parsed as CSV. The request
// is traced like a tool request (tool=upload): upload.read, upload.decode
// and upload.register under the root span.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	ctx, root := obs.NewTrace(r.Context(), "request")
	root.SetAttr("tool", "upload")
	defer s.finishTrace("upload", root)
	name := r.PathValue("name")

	_, read := obs.Trace(ctx, "upload.read")
	body, status, err := s.readBody(w, r)
	read.SetAttrInt("bytes", int64(len(body)))
	read.End()
	if err != nil {
		s.writeError(w, status, err.Error())
		return
	}

	_, decode := obs.Trace(ctx, "upload.decode")
	d, format, err := decodeDataset(body)
	decode.SetAttr("format", format)
	decode.SetAttrInt("bytes", int64(len(body)))
	if err == nil {
		decode.SetAttrInt("points", int64(d.N()))
	}
	decode.End()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	_, register := obs.Trace(ctx, "upload.register")
	version, err := s.putDataset(name, d)
	register.End()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeDatasetInfo(w, DatasetInfo{
		Name: name, N: d.N(), Version: version,
		HasTimes: d.HasTimes(), HasValues: d.HasValues(),
	})
}

// readBody reads an upload body once, through MaxBodyBytes. A body of
// known length is read by readDeclared, so one of up to firstBodyBuffer
// bytes lands in one buffer of exactly its size; only a body of unknown
// length (chunked) is read into a growing buffer. A declared length over
// the cap is refused before a byte is read, and a body that runs past the
// cap (*http.MaxBytesError) is refused too: both are 413. Any other read
// error — a client that hangs up, or sends fewer bytes than it declared —
// is 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	limit := s.cfg.MaxBodyBytes
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, limit)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	var (
		buf []byte
		err error
	)
	if r.ContentLength >= 0 {
		buf, err = readDeclared(body, r.ContentLength)
	} else {
		buf, err = io.ReadAll(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err)
	}
	return buf, http.StatusOK, nil
}

// firstBodyBuffer caps the buffer readDeclared allocates before the first
// body byte arrives.
const firstBodyBuffer = 1 << 20

// readDeclared reads exactly n bytes from r. Its buffer starts at
// min(n, firstBodyBuffer) and doubles, never past n, only once full, so
// what it holds follows the bytes received, not the length a client
// declared: a client that declares the cap and sends nothing holds
// firstBodyBuffer. Fewer than n bytes is io.ErrUnexpectedEOF.
func readDeclared(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, 0, min(n, firstBodyBuffer))
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*int64(cap(buf))))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF && int64(len(buf)) < n {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
	}
	return buf, nil
}

// putDataset registers d under name and, when that replaces an earlier
// snapshot, drops the results cached for it: their keys are unreachable
// from now on and would only hold bytes.
func (s *Server) putDataset(name string, d *geostat.Dataset) (uint64, error) {
	version, replaced, err := s.reg.put(name, d)
	if replaced {
		s.cache.invalidate(name, version)
	}
	return version, err
}

// decodeDataset decodes an upload body in one pass straight into the
// dataset's columns and names the format it sniffed.
func decodeDataset(body []byte) (*geostat.Dataset, string, error) {
	if b := bytes.TrimLeft(body, " \t\r\n"); len(b) > 0 && b[0] == '{' {
		d, err := geojson.DecodePoints(body)
		return d, "geojson", err
	}
	d, err := dataset.DecodeCSV(body)
	return d, "csv", err
}

func (s *Server) writeDatasetInfo(w http.ResponseWriter, info DatasetInfo) {
	v, err := jsonValue(info)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeValue(w, v, "none")
}

// handleDigest serves GET /v1/datasets/{name}/digest: the dataset's
// content digest (SHA-256 over the exact column bits) plus its version.
// The shard coordinator calls this before fanning out tiles, to verify a
// worker's copy of the dataset is bit-identical to the one it planned
// against; a mismatch (or 404) triggers a re-upload.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	digest, version, ok := s.reg.Digest(name)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", name))
		return
	}
	d, _, _ := s.reg.Get(name)
	s.writeDatasetInfo(w, DatasetInfo{
		Name: name, N: d.N(), Version: version,
		HasTimes: d.HasTimes(), HasValues: d.HasValues(),
		Digest: digest,
	})
}

// handleGenerate registers a synthetic dataset: kind=csr|clusters|outbreak
// with n points from the given seed, over the fixed [0,100]² study box
// (the box the CLI demos use). field=true attaches a smooth measured
// value to every point so the interpolation/autocorrelation tools apply.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	p := newParams(r.URL.Query())
	name := p.str("name", "")
	kind := p.str("kind", "csr")
	n := p.intv("n", 1000)
	seed := p.int64v("seed", 1)
	field := p.boolv("field", false)
	if err := p.err(); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if name == "" {
		s.writeError(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	if n < 1 || n > 1_000_000 {
		s.writeError(w, http.StatusBadRequest, "n must be in [1, 1000000]")
		return
	}
	box := geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	rng := geostat.NewRand(seed)
	var d *geostat.Dataset
	switch kind {
	case "csr":
		d = geostat.UniformCSR(rng, n, box)
	case "clusters":
		d = geostat.GaussianClusters(rng, n, box, []geostat.GaussianCluster{
			{Center: geostat.Point{X: 30, Y: 30}, Sigma: 6, Weight: 2},
			{Center: geostat.Point{X: 70, Y: 60}, Sigma: 10, Weight: 1},
		}, 0.15)
	case "outbreak":
		d = geostat.SpatioTemporalOutbreak(rng, n, box, 0, 10, []geostat.OutbreakWave{
			{Center: geostat.Point{X: 25, Y: 25}, Sigma: 8, TimeMean: 3, TimeSigma: 1, Weight: 1},
			{Center: geostat.Point{X: 75, Y: 70}, Sigma: 8, TimeMean: 7, TimeSigma: 1, Weight: 1},
		}, 0.1)
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown kind %q (csr|clusters|outbreak)", kind))
		return
	}
	if field {
		d = geostat.WithField(rng, d, func(q geostat.Point) float64 {
			return 10 + q.X/10 + q.Y/20 + 5*gaussBump(q, 35, 35, 15)
		}, 0.5)
	}
	version, err := s.putDataset(name, d)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.writeDatasetInfo(w, DatasetInfo{
		Name: name, N: d.N(), Version: version,
		HasTimes: d.HasTimes(), HasValues: d.HasValues(),
	})
}

// gaussBump is the hotspot term of the synthetic measured field.
func gaussBump(q geostat.Point, cx, cy, s float64) float64 {
	dx, dy := q.X-cx, q.Y-cy
	return math.Exp(-(dx*dx + dy*dy) / (2 * s * s))
}

// ---- shared parameter plumbing ----

// parseGrid reads the raster parameters (width, height, optional
// bbox=minx,miny,maxx,maxy) and returns the evaluation grid. The default
// window is the dataset's bounding box; an explicit bbox is how clients
// request individual tiles of a larger surface.
func parseGrid(d *geostat.Dataset, p *params) geostat.PixelGrid {
	nx := p.intv("width", 128)
	ny := p.intv("height", 128)
	if nx < 1 || nx > 4096 || ny < 1 || ny > 4096 {
		p.fail("width/height", "must be in [1, 4096]")
		nx, ny = 1, 1
	}
	box := d.Bounds()
	if raw := p.str("bbox", ""); raw != "" {
		var minx, miny, maxx, maxy float64
		if _, err := fmt.Sscanf(raw, "%f,%f,%f,%f", &minx, &miny, &maxx, &maxy); err != nil {
			p.fail("bbox", "want minx,miny,maxx,maxy (%q)", raw)
		} else if !finite(minx) || !finite(miny) || !finite(maxx) || !finite(maxy) {
			// NaN compares false against everything, so without this check a
			// bbox like "NaN,0,10,10" would sail through the emptiness test
			// below and poison the whole raster.
			p.fail("bbox", "coordinates must be finite (%q)", raw)
		} else if minx >= maxx || miny >= maxy {
			p.fail("bbox", "empty box %q", raw)
		} else {
			box = geostat.BBox{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
		}
	}
	return geostat.NewPixelGrid(box, nx, ny)
}

func bboxDiag(b geostat.BBox) float64 {
	return math.Hypot(b.Width(), b.Height())
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// heatmapValue renders a computed surface as format=json (the full value
// array plus summary stats), format=f64 (the same with raw float64 values,
// shard.KDVResult.MarshalBinary) or format=png (heat-ramp raster).
func heatmapValue(g *geostat.Heatmap, format, dataset, method string) (Value, error) {
	if format == "png" {
		var buf bytes.Buffer
		if err := g.WritePNG(&buf, geostat.HeatRamp); err != nil {
			return Value{}, err
		}
		return Value{Body: buf.Bytes(), ContentType: "image/png"}, nil
	}
	lo, hi := g.MinMax()
	res := shard.KDVResult{Dataset: dataset, Method: method, Width: g.Spec.NX, Height: g.Spec.NY,
		Min: lo, Max: hi, Sum: g.Sum(), Values: g.Values}
	switch format {
	case "json", "":
		return jsonValue(res)
	case "f64":
		b, err := res.MarshalBinary()
		return Value{Body: b, ContentType: "application/octet-stream"}, err
	default:
		return Value{}, fmt.Errorf("unknown format %q (json|png|f64)", format)
	}
}

// ---- tool compute functions ----

// computeKDV serves GET /v1/kdv: a kernel density raster tile.
// Parameters: kernel (default quartic), bandwidth (0 = Silverman's rule),
// method (auto|naive|grid-cutoff|sweep-line|bound-approx|sampled),
// width/height/bbox, epsilon/delta/seed for the approximate methods,
// normalize, format=json|png|f64.
func (s *Server) computeKDV(ctx context.Context, d *geostat.Dataset, p *params) (Value, error) {
	_, parse := obs.Trace(ctx, "kdv.parse")
	defer parse.End()
	method, err := geostat.ParseKDVMethod(p.str("method", "auto"))
	if err != nil {
		return Value{}, err
	}
	ktype, err := geostat.ParseKernel(p.str("kernel", "quartic"))
	if err != nil {
		return Value{}, err
	}
	bandwidth := p.floatv("bandwidth", 0)
	if bandwidth == 0 {
		if bandwidth, err = geostat.SilvermanBandwidthDataset(d); err != nil {
			return Value{}, err
		}
	}
	k, err := geostat.NewKernel(ktype, bandwidth)
	if err != nil {
		return Value{}, err
	}
	opt := geostat.KDVOptions{
		Kernel:    k,
		Grid:      parseGrid(d, p),
		Method:    method,
		Normalize: p.boolv("normalize", false),
		Workers:   s.cfg.Workers,
		Epsilon:   p.floatv("epsilon", 0.05),
		Delta:     p.floatv("delta", 0.01),
		Seed:      p.int64v("seed", 1),
	}
	// tile=x0,y0,w,h evaluates only that pixel window of the full grid —
	// the shard coordinator's per-worker request unit. Centers still come
	// from the full grid, so assembling tiles reproduces the single-node
	// raster bit-for-bit. Which methods can evaluate a window is the
	// evaluator pipeline's call (kde's capability table); its typed refusal
	// becomes the 400 body.
	if raw := p.str("tile", ""); raw != "" {
		var win geostat.GridWindow
		if _, serr := fmt.Sscanf(raw, "%d,%d,%d,%d", &win.X0, &win.Y0, &win.NX, &win.NY); serr != nil {
			return Value{}, fmt.Errorf("tile: want x0,y0,w,h (%q)", raw)
		}
		if werr := opt.Grid.CheckWindow(win); werr != nil {
			return Value{}, werr
		}
		opt.Window = win
	}
	if perr := p.err(); perr != nil {
		return Value{}, perr
	}
	parse.End()

	cctx, compute := obs.Trace(ctx, "kdv.compute")
	defer compute.End()
	g, err := geostat.KDVDatasetCtx(cctx, d, opt)
	compute.End()
	if err != nil {
		return Value{}, err
	}
	if !opt.Window.IsZero() {
		s.metrics.Counter("shard_tiles_total",
			"windowed (tile=) KDV computations served to a shard coordinator").Inc()
	}

	_, encode := obs.Trace(ctx, "kdv.encode")
	defer encode.End()
	return heatmapValue(g, p.str("format", "json"), p.str("dataset", ""), method.String())
}

// computeKFunction serves GET /v1/kfunction: the K-function plot with
// Monte-Carlo CSR envelopes (Definition 3). Parameters: smax (default
// quarter of the bbox diagonal), steps (default 10), sims (default 19 —
// the p=0.05 convention), seed.
func (s *Server) computeKFunction(ctx context.Context, d *geostat.Dataset, p *params) (Value, error) {
	_, parse := obs.Trace(ctx, "kfunction.parse")
	defer parse.End()
	smax := p.floatv("smax", bboxDiag(d.Bounds())/4)
	steps := p.intv("steps", 10)
	sims := p.intv("sims", 19)
	seed := p.int64v("seed", 1)
	if err := p.err(); err != nil {
		return Value{}, err
	}
	if steps < 1 || steps > 1000 {
		return Value{}, fmt.Errorf("steps must be in [1, 1000]")
	}
	if sims < 1 || sims > 10000 {
		return Value{}, fmt.Errorf("sims must be in [1, 10000]")
	}
	if !(smax > 0) {
		return Value{}, fmt.Errorf("smax must be positive")
	}
	// thresholds=s1,s2,... evaluates an explicit distance-band list — the
	// shard coordinator sends its whole plot this way, so the worker
	// evaluates exactly the bands it planned. Counts per band are integers
	// and each Monte-Carlo simulation draws its point pattern from the
	// seed independently of the band list, so any subset of the bands
	// reproduces those bands of the full plot bit for bit. Absent, the
	// bands derive from smax/steps.
	var thresholds []float64
	if raw := p.str("thresholds", ""); raw != "" {
		parts := strings.Split(raw, ",")
		if len(parts) > 1000 {
			return Value{}, fmt.Errorf("thresholds: at most 1000 bands (%d)", len(parts))
		}
		thresholds = make([]float64, len(parts))
		for i, part := range parts {
			v, perr := strconv.ParseFloat(part, 64)
			if perr != nil {
				return Value{}, fmt.Errorf("thresholds: not a number (%q)", part)
			}
			thresholds[i] = v
		}
		s.metrics.Counter("shard_bands_total",
			"K-function distance bands served via explicit thresholds= requests").Add(int64(len(parts)))
	} else {
		thresholds = make([]float64, steps)
		for i := range thresholds {
			thresholds[i] = smax * float64(i+1) / float64(steps)
		}
	}
	parse.End()

	cctx, compute := obs.Trace(ctx, "kfunction.compute")
	defer compute.End()
	plot, err := geostat.KFunctionPlotDataset(d, geostat.KPlotOptions{
		Thresholds:  thresholds,
		Simulations: sims,
		Workers:     s.cfg.Workers,
		Ctx:         cctx,
	}, geostat.NewRand(seed))
	if compute != nil && err == nil {
		compute.SetAttrInt("points", int64(d.N()))
		compute.SetAttrInt("thresholds", int64(len(thresholds)))
		compute.SetAttrInt("sims", int64(sims))
		// K counts ordered pairs: half of K(s_max) is the observed
		// unordered pairs the sweep binned.
		compute.SetAttrInt("pairs_in_range", int64(plot.K[len(plot.K)-1])/2)
	}
	compute.End()
	if err != nil {
		return Value{}, err
	}

	_, encode := obs.Trace(ctx, "kfunction.encode")
	defer encode.End()
	regimes := make([]string, len(plot.S))
	for i := range regimes {
		regimes[i] = plot.RegimeAt(i).String()
	}
	return jsonValue(struct {
		Dataset string    `json:"dataset"`
		S       []float64 `json:"s"`
		K       []float64 `json:"k"`
		Lo      []float64 `json:"lo"`
		Hi      []float64 `json:"hi"`
		Sims    int       `json:"sims"`
		Regimes []string  `json:"regimes"`
	}{p.str("dataset", ""), plot.S, plot.K, plot.Lo, plot.Hi, plot.Sim, regimes})
}

// computeMoran serves GET /v1/moran: global Moran's I with a permutation
// test over row-standardised weights (see computeAutocorr).
func (s *Server) computeMoran(ctx context.Context, d *geostat.Dataset, p *params) (Value, error) {
	return s.computeAutocorr(ctx, "moran", d, p, true, func(w *geostat.SpatialWeights, opt geostat.MoranOptions) (any, error) {
		res, err := geostat.MoranIOpt(d.Values(), w, opt)
		if err != nil {
			return nil, err
		}
		return struct {
			Dataset  string  `json:"dataset"`
			I        float64 `json:"i"`
			Expected float64 `json:"expected"`
			PermMean float64 `json:"perm_mean"`
			PermStd  float64 `json:"perm_std"`
			Z        float64 `json:"z"`
			P        float64 `json:"p"`
			Perms    int     `json:"perms"`
		}{p.str("dataset", ""), res.I, res.Expected, res.PermMean, res.PermStd, res.Z, res.P, res.Perms}, nil
	})
}

// computeGeneralG serves GET /v1/generalg: Getis-Ord General G with a
// permutation test. Weights stay binary by default (the statistic's
// textbook form); pass rowstd=true to override.
func (s *Server) computeGeneralG(ctx context.Context, d *geostat.Dataset, p *params) (Value, error) {
	return s.computeAutocorr(ctx, "generalg", d, p, false, func(w *geostat.SpatialWeights, opt geostat.GetisOrdOptions) (any, error) {
		res, err := geostat.GeneralGOpt(d.Values(), w, opt)
		if err != nil {
			return nil, err
		}
		return struct {
			Dataset  string  `json:"dataset"`
			G        float64 `json:"g"`
			Expected float64 `json:"expected"`
			PermMean float64 `json:"perm_mean"`
			PermStd  float64 `json:"perm_std"`
			Z        float64 `json:"z"`
			P        float64 `json:"p"`
			Perms    int     `json:"perms"`
		}{p.str("dataset", ""), res.G, res.Expected, res.PermMean, res.PermStd, res.Z, res.P, res.Perms}, nil
	})
}

// computeAutocorr is the request path of the global autocorrelation tools:
// parse every parameter — weights=knn (default, k=8) or weights=band
// (radius defaults to 1/10 of the bbox diagonal), rowstd, perms (default
// 99), seed — and only when all of them are valid build the weight matrix
// from the dataset's columns and hand it to run, whose result is the JSON
// body. tool prefixes the span names.
func (s *Server) computeAutocorr(ctx context.Context, tool string, d *geostat.Dataset, p *params, rowstd bool,
	run func(w *geostat.SpatialWeights, opt geostat.MoranOptions) (any, error)) (Value, error) {
	_, parse := obs.Trace(ctx, tool+".parse")
	defer parse.End()
	scheme := p.str("weights", "knn")
	k := p.intv("k", 8)
	radius := p.floatv("radius", bboxDiag(d.Bounds())/10)
	rowstd = p.boolv("rowstd", rowstd)
	opt := geostat.MoranOptions{
		Perms:   p.intv("perms", 99),
		Seed:    p.int64v("seed", 1),
		Workers: s.cfg.Workers,
	}
	if err := p.err(); err != nil {
		return Value{}, err
	}
	if scheme != "knn" && scheme != "band" {
		return Value{}, fmt.Errorf("unknown weights scheme %q (knn|band)", scheme)
	}
	if opt.Perms < 0 || opt.Perms > 10000 {
		return Value{}, fmt.Errorf("perms must be in [0, 10000]")
	}
	parse.End()

	_, span := obs.Trace(ctx, tool+".weights")
	defer span.End()
	var (
		w   *geostat.SpatialWeights
		hit bool
		err error
	)
	if scheme == "knn" {
		w, hit, err = weights.KNNDataset(d, k, s.cfg.Workers)
	} else {
		w, hit, err = weights.DistanceBandDataset(d, radius, s.cfg.Workers)
	}
	if err != nil {
		return Value{}, err
	}
	span.SetAttrHit("memo", hit)
	if rowstd {
		w.RowStandardize()
	}
	if span != nil {
		nnz := 0
		for i := 0; i < w.N; i++ {
			nnz += w.Degree(i)
		}
		span.SetAttrInt("points", int64(w.N))
		span.SetAttrInt("neighbors", int64(nnz))
	}
	span.End()

	cctx, compute := obs.Trace(ctx, tool+".compute")
	defer compute.End()
	if compute != nil {
		compute.SetAttrInt("perms", int64(opt.Perms))
	}
	opt.Ctx = cctx
	body, err := run(w, opt)
	compute.End()
	if err != nil {
		return Value{}, err
	}

	_, encode := obs.Trace(ctx, tool+".encode")
	defer encode.End()
	return jsonValue(body)
}

// computeIDW serves GET /v1/idw: inverse-distance-weighted interpolation
// of the dataset's values. Parameters: power (default 2), method
// (naive|knn|radius), k (knn, default 8), radius (radius method, default
// 1/10 of the bbox diagonal), width/height/bbox, format=json|png|f64.
func (s *Server) computeIDW(ctx context.Context, d *geostat.Dataset, p *params) (Value, error) {
	_, parse := obs.Trace(ctx, "idw.parse")
	defer parse.End()
	opt := geostat.IDWOptions{
		Grid:    parseGrid(d, p),
		Power:   p.floatv("power", 2),
		Workers: s.cfg.Workers,
	}
	method := p.str("method", "naive")
	k := p.intv("k", 8)
	radius := p.floatv("radius", bboxDiag(d.Bounds())/10)
	if err := p.err(); err != nil {
		return Value{}, err
	}
	parse.End()

	cctx, compute := obs.Trace(ctx, "idw.compute")
	defer compute.End()
	opt.Ctx = cctx
	var (
		g   *geostat.Heatmap
		err error
	)
	switch method {
	case "naive":
		g, err = geostat.IDW(d, opt)
	case "knn":
		g, err = geostat.IDWKNN(d, opt, k)
	case "radius":
		g, err = geostat.IDWRadius(d, opt, radius)
	default:
		return Value{}, fmt.Errorf("unknown method %q (naive|knn|radius)", method)
	}
	compute.End()
	if err != nil {
		return Value{}, err
	}

	_, encode := obs.Trace(ctx, "idw.encode")
	defer encode.End()
	return heatmapValue(g, p.str("format", "json"), p.str("dataset", ""), "idw-"+method)
}
