package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"geostat"
	"geostat/internal/parallel"
	"geostat/internal/serve"
)

// serveTarget is one serve.Server behind a real loopback listener, driven
// over its HTTP API by two closed-loop clients on two connections.
type serveTarget struct {
	srv      *httptest.Server
	client   *http.Client
	datasets map[string]*geostat.Dataset // content by dataset name
	cold     *geostat.Dataset            // content of every cold<i> upload
	payloads map[string][]byte
	ver      *verifier
	bufs     []bytes.Buffer // one response buffer per caller

	mu     sync.Mutex
	firsts []firstBody    // first body of every GET key, checked in finish
	uses   map[string]int // GETs answered per key
	misses []missSample   // traced pass: the 1-in-8 sample of KDV misses to replay
}

type firstBody struct {
	key  string
	body []byte
}

type missSample struct {
	op  int
	url string
	ms  float64
}

// newServeTarget boots the server and uploads the datasets over HTTP.
func newServeTarget(ctx context.Context, cacheBytes int64, datasets map[string]*geostat.Dataset, cold *geostat.Dataset) (*serveTarget, error) {
	const callers = 2
	t := &serveTarget{
		srv: httptest.NewServer(serve.NewServer(serve.Config{CacheBytes: cacheBytes, Workers: -1})),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers,
		}},
		datasets: datasets, cold: cold,
		payloads: make(map[string][]byte),
		ver:      newVerifier(),
		bufs:     make([]bytes.Buffer, callers),
		uses:     make(map[string]int),
	}
	fail := func(err error) (*serveTarget, error) {
		t.close()
		return nil, err
	}
	for _, name := range []string{"city", "survey"} {
		d, ok := datasets[name]
		if !ok {
			continue
		}
		csv, err := csvBytes(d)
		if err != nil {
			return fail(err)
		}
		t.payloads[name+".csv"] = csv
		if name == "survey" {
			if t.payloads["survey.geojson"], err = geojsonBytes(d); err != nil {
				return fail(err)
			}
		}
		if _, err = t.do(ctx, 0, httpStep{Method: "POST", URL: "/v1/datasets/" + name, Payload: name + ".csv"}, opTrace{}); err != nil {
			return fail(err)
		}
	}
	if cold != nil {
		csv, err := csvBytes(cold)
		if err != nil {
			return fail(err)
		}
		t.payloads["cold.csv"] = csv
	}
	return t, nil
}

func (t *serveTarget) close() {
	t.srv.Close()
	t.client.CloseIdleConnections()
}

// reply is one HTTP response, its body sitting in the caller's buffer.
type reply struct {
	cache string
	body  []byte
	ms    float64
}

// do sends one request and reads the whole response. Any transport error,
// short body or status other than 200 is an error.
func (t *serveTarget) do(ctx context.Context, caller int, st httpStep, tr opTrace) (reply, error) {
	var body *bytes.Reader
	if st.Method == "POST" {
		p, ok := t.payloads[st.Payload]
		if !ok {
			return reply{}, fmt.Errorf("unknown payload %q", st.Payload)
		}
		body = bytes.NewReader(p)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, st.Method, t.srv.URL+st.URL, body)
	if err != nil {
		return reply{}, err
	}
	sp := tr.start("http.roundtrip")
	t0 := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		tr.end(sp, "error", err.Error())
		return reply{}, err
	}
	defer resp.Body.Close()
	buf := &t.bufs[caller]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	r := reply{cache: resp.Header.Get("X-Cache"), body: buf.Bytes(), ms: float64(time.Since(t0)) / 1e6}
	tr.end(sp, "status", strconv.Itoa(resp.StatusCode), "cache", r.cache, "bytes", strconv.Itoa(len(r.body)))
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: read body: %w", st.Method, st.URL, err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s %s: status %d: %.200s", st.Method, st.URL, resp.StatusCode, r.body)
	}
	return r, nil
}

func (t *serveTarget) run(ctx context.Context, caller int, o *op, tr opTrace) (opInfo, error) {
	var info opInfo
	for _, st := range o.Steps {
		r, err := t.do(ctx, caller, st, tr)
		if err != nil {
			return info, err
		}
		info.bytes += len(r.body)
		if st.Method == "POST" {
			if err = t.checkUpload(st, r.body); err != nil {
				return info, err
			}
			continue
		}
		info.cache = r.cache
		if err = t.observe(st.URL, r.body); err != nil {
			return info, err
		}
		if tr.rec != nil && r.cache == "miss" && o.ID%8 == 0 && strings.HasPrefix(st.URL, "/v1/kdv?") {
			t.mu.Lock()
			t.misses = append(t.misses, missSample{op: o.ID, url: st.URL, ms: r.ms})
			t.mu.Unlock()
		}
	}
	return info, nil
}

// checkUpload verifies the dataset info a POST echoes back.
func (t *serveTarget) checkUpload(st httpStep, body []byte) error {
	var info struct {
		N int `json:"n"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("POST %s: %w", st.URL, err)
	}
	if want := t.dataset(strings.TrimPrefix(st.URL, "/v1/datasets/")).N(); info.N != want {
		return fmt.Errorf("POST %s: server stored %d points, uploaded %d", st.URL, info.N, want)
	}
	return nil
}

func (t *serveTarget) dataset(name string) *geostat.Dataset {
	if strings.HasPrefix(name, "cold") {
		return t.cold
	}
	return t.datasets[name]
}

// observe checks a GET body: a repeat must equal the first body for the URL
// bit for bit, a PNG must be complete, and a first body is kept for finish.
func (t *serveTarget) observe(key string, body []byte) error {
	if strings.HasSuffix(key, "format=png") {
		if err := checkPNG(body); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
	}
	fresh, err := t.ver.observe(key, digest64(body))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.uses[key]++
	if fresh {
		t.firsts = append(t.firsts, firstBody{key: key, body: bytes.Clone(body)})
	}
	return err
}

func (t *serveTarget) counters(ctx context.Context) map[string]float64 {
	r, err := t.do(ctx, 0, httpStep{Method: "GET", URL: "/metrics"}, opTrace{})
	if err != nil {
		return nil
	}
	return promCounters(bytes.NewReader(r.body))
}

// finish checks the first body of every key: KDV rasters against the
// direct-sum reference, every eighth PNG and the first key of every other
// tool against a replay through the library, the rest for well-formed JSON.
func (t *serveTarget) finish(ctx context.Context) []error {
	replay := make([]bool, len(t.firsts))
	seenTool := make(map[string]bool)
	for i, f := range t.firsts {
		tool := toolOf(f.key)
		switch {
		case tool == "kdv":
			replay[i] = i%8 == 0
		case !seenTool[tool]:
			replay[i], seenTool[tool] = true, true
		}
	}
	errs := make([]error, len(t.firsts))
	_ = parallel.ForCtx(ctx, len(t.firsts), -1, func(i int) {
		errs[i] = t.checkFirst(ctx, i, t.firsts[i], replay[i])
	})
	keys := make([]string, len(t.firsts))
	for i, f := range t.firsts {
		keys[i] = f.key
	}
	return failedOps(keys, errs, t.uses)
}

// toolOf names the tool of a request URL, with the IDW method appended
// because the two methods are replayed through different library calls.
func toolOf(rawURL string) string {
	path, query, _ := strings.Cut(rawURL, "?")
	tool := strings.TrimPrefix(path, "/v1/")
	if tool == "idw" {
		q, _ := url.ParseQuery(query)
		tool += "_" + q.Get("method")
	}
	return tool
}

func (t *serveTarget) checkFirst(ctx context.Context, i int, f firstBody, replay bool) error {
	u, err := url.Parse(f.key)
	if err != nil {
		return err
	}
	q := u.Query()
	d := t.dataset(q.Get("dataset"))
	switch tool := toolOf(f.key); tool {
	case "kdv":
		spec, err := kdvSpecOf(q, d)
		if err != nil {
			return err
		}
		if q.Get("format") == "png" {
			if !replay {
				return nil // signature and trailer were checked inline
			}
			_, png, rerr := replayKDV(ctx, d, spec, "png", q.Get("dataset"))
			if rerr != nil {
				return rerr
			}
			if !bytes.Equal(png, f.body) {
				return fmt.Errorf("PNG differs from the library's rendering of the same request")
			}
			return nil
		}
		h, err := decodeHeatmap(f.body, spec.NX, spec.NY)
		if err != nil {
			return err
		}
		_, err = checkAgainstRef(d, spec, samplePixels(int64(i), h.Values))
		return err
	case "kfunction":
		if !replay {
			return validJSON(f.body)
		}
		return replayKFunction(ctx, d, q, f.body)
	case "moran", "generalg":
		if !replay {
			return validJSON(f.body)
		}
		return replayAutocorr(ctx, tool, d, q, f.body)
	case "idw_knn", "idw_naive":
		if !replay {
			return validJSON(f.body)
		}
		return replayIDW(ctx, tool, d, q, f.body)
	}
	return fmt.Errorf("no check for %s", f.key)
}

func validJSON(body []byte) error {
	if !json.Valid(body) {
		return fmt.Errorf("body is not valid JSON (%d bytes)", len(body))
	}
	return nil
}

// kdvSpecOf rebuilds the KDV request of a /v1/kdv URL. bandwidth=0 means
// Silverman's rule over the dataset, as in the handler.
func kdvSpecOf(q url.Values, d *geostat.Dataset) (kdvSpec, error) {
	s := kdvSpec{Kernel: q.Get("kernel"), Method: "auto"}
	if m := q.Get("method"); m != "" {
		s.Method = m
	}
	var err error
	if s.Bandwidth, err = strconv.ParseFloat(q.Get("bandwidth"), 64); err != nil && q.Get("bandwidth") != "" {
		return s, err
	}
	if s.Bandwidth == 0 {
		if s.Bandwidth, err = geostat.SilvermanBandwidth(d.Points()); err != nil {
			return s, err
		}
	}
	if s.NX, err = strconv.Atoi(q.Get("width")); err != nil {
		return s, err
	}
	if s.NY, err = strconv.Atoi(q.Get("height")); err != nil {
		return s, err
	}
	s.Box, err = bboxOf(q)
	return s, err
}

func bboxOf(q url.Values) (geostat.BBox, error) {
	var b geostat.BBox
	_, err := fmt.Sscanf(q.Get("bbox"), "%g,%g,%g,%g", &b.MinX, &b.MinY, &b.MaxX, &b.MaxY)
	return b, err
}

// replayKDV computes and encodes a KDV request through the library the way
// the handler does, returning the raster and the encoded body.
func replayKDV(ctx context.Context, d *geostat.Dataset, s kdvSpec, format, dataset string) (*geostat.Heatmap, []byte, error) {
	opt, err := s.options()
	if err != nil {
		return nil, nil, err
	}
	g, err := geostat.KDVDatasetCtx(ctx, d, opt)
	if err != nil {
		return nil, nil, err
	}
	body, err := encodeHeatmap(g, format, dataset, s.Method)
	return g, body, err
}

// encodeHeatmap renders a raster the way /v1/kdv and /v1/idw do.
func encodeHeatmap(g *geostat.Heatmap, format, dataset, method string) ([]byte, error) {
	if format == "png" {
		var buf bytes.Buffer
		err := g.WritePNG(&buf, geostat.HeatRamp)
		return buf.Bytes(), err
	}
	lo, hi := g.MinMax()
	return json.Marshal(struct {
		Dataset string    `json:"dataset"`
		Method  string    `json:"method"`
		Width   int       `json:"width"`
		Height  int       `json:"height"`
		Min     float64   `json:"min"`
		Max     float64   `json:"max"`
		Sum     float64   `json:"sum"`
		Values  []float64 `json:"values"`
	}{dataset, method, g.Spec.NX, g.Spec.NY, lo, hi, g.Sum(), g.Values})
}

func intParam(q url.Values, key string) int {
	n, _ := strconv.Atoi(q.Get(key))
	return n
}

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, library gives %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d]: got %g, library gives %g", what, i, got[i], want[i])
		}
	}
	return nil
}

func replayKFunction(ctx context.Context, d *geostat.Dataset, q url.Values, body []byte) error {
	var got struct {
		S, K, Lo, Hi []float64
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	smax, err := strconv.ParseFloat(q.Get("smax"), 64)
	if err != nil {
		return err
	}
	steps := intParam(q, "steps")
	th := make([]float64, steps)
	for i := range th {
		th[i] = smax * float64(i+1) / float64(steps)
	}
	seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
	plot, err := geostat.KFunctionPlot(d.Points(), geostat.KPlotOptions{
		Thresholds: th, Simulations: intParam(q, "sims"), Workers: -1, Ctx: ctx,
	}, geostat.NewRand(seed))
	if err != nil {
		return err
	}
	for _, c := range []struct {
		what      string
		got, want []float64
	}{{"s", got.S, plot.S}, {"k", got.K, plot.K}, {"lo", got.Lo, plot.Lo}, {"hi", got.Hi, plot.Hi}} {
		if err := sameBits(c.what, c.got, c.want); err != nil {
			return err
		}
	}
	return nil
}

func replayAutocorr(ctx context.Context, tool string, d *geostat.Dataset, q url.Values, body []byte) error {
	var got struct {
		I, G, Z, P float64
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	w, err := geostat.KNNWeightsWorkers(d.Points(), intParam(q, "k"), -1)
	if err != nil {
		return err
	}
	seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
	if tool == "moran" {
		w.RowStandardize()
		res, merr := geostat.MoranIOpt(d.Values(), w, geostat.MoranOptions{Perms: intParam(q, "perms"), Seed: seed, Workers: -1, Ctx: ctx})
		if merr != nil {
			return merr
		}
		return sameBits("moran i,z,p", []float64{got.I, got.Z, got.P}, []float64{res.I, res.Z, res.P})
	}
	res, err := geostat.GeneralGOpt(d.Values(), w, geostat.GetisOrdOptions{Perms: intParam(q, "perms"), Seed: seed, Workers: -1, Ctx: ctx})
	if err != nil {
		return err
	}
	return sameBits("generalg g,z,p", []float64{got.G, got.Z, got.P}, []float64{res.G, res.Z, res.P})
}

func replayIDW(ctx context.Context, tool string, d *geostat.Dataset, q url.Values, body []byte) error {
	box, err := bboxOf(q)
	if err != nil {
		return err
	}
	nx, ny := intParam(q, "width"), intParam(q, "height")
	got, err := decodeHeatmap(body, nx, ny)
	if err != nil {
		return err
	}
	opt := geostat.IDWOptions{Grid: geostat.NewPixelGrid(box, nx, ny), Power: 2, Workers: -1, Ctx: ctx}
	var g *geostat.Heatmap
	if tool == "idw_knn" {
		g, err = geostat.IDWKNN(d, opt, intParam(q, "k"))
	} else {
		g, err = geostat.IDW(d, opt)
	}
	if err != nil {
		return err
	}
	return sameBits("idw values", got.Values, g.Values)
}

// replayed is one sampled miss of the traced pass, replayed through the
// library outside every op's clock: what the round trip cost, and what the
// same compute and the same encode cost without the server around them.
type replayed struct {
	roundtripMS, computeMS, encodeMS float64
}

// replayMisses re-runs the sampled misses serially under rec, one "replay"
// root span each with replay.compute and replay.encode children.
func (t *serveTarget) replayMisses(ctx context.Context, rec *recorder) ([]replayed, error) {
	var out []replayed
	for _, m := range t.misses {
		u, err := url.Parse(m.url)
		if err != nil {
			return nil, err
		}
		q := u.Query()
		d := t.dataset(q.Get("dataset"))
		root := rec.start(-1, m.op, "replay")
		c := rec.start(root, m.op, "replay.compute")
		t0 := time.Now()
		spec, err := kdvSpecOf(q, d)
		if err != nil {
			return nil, err
		}
		opt, err := spec.options()
		if err != nil {
			return nil, err
		}
		g, err := geostat.KDVDatasetCtx(ctx, d, opt)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rec.end(c)
		e := rec.start(root, m.op, "replay.encode")
		if _, err = encodeHeatmap(g, q.Get("format"), q.Get("dataset"), spec.Method); err != nil {
			return nil, err
		}
		t2 := time.Now()
		rec.end(e, "format", q.Get("format"))
		rec.end(root, "roundtrip_ms", strconv.FormatFloat(m.ms, 'f', 3, 64))
		out = append(out, replayed{roundtripMS: m.ms, computeMS: float64(t1.Sub(t0)) / 1e6, encodeMS: float64(t2.Sub(t1)) / 1e6})
	}
	return out, nil
}

// serveLayer derives the serving layer's numbers from the traced pass:
// client round trips classified by X-Cache, /metrics deltas, and the
// replayed sample of misses.
func serveLayer(ctx context.Context, t *serveTarget, rec *recorder, samples []sample, before, after map[string]float64, m map[string]float64) error {
	gets, hits, bytesOut := 0, 0, 0
	for _, s := range samples {
		bytesOut += s.info.bytes
		if s.info.cache != "" {
			gets++
			if s.info.cache == "hit" {
				hits++
			}
		}
	}
	single := func(s sample) bool { return len(s.op.Steps) == 1 }
	m["serve.hit_ms"] = medianWhere(samples, func(s sample) bool { return single(s) && s.info.cache == "hit" })
	m["serve.miss_ms"] = medianWhere(samples, func(s sample) bool { return single(s) && s.info.cache == "miss" })
	if gets > 0 {
		m["serve.hit_ratio"] = float64(hits) / float64(gets)
	}
	m["serve.bytes_out_mb"] = float64(bytesOut) / (1 << 20)
	setCounter(m, "serve.compute_total", before, after, "serve_compute_total")
	setCounter(m, "serve.coalesced_total", before, after, "serve_singleflight_shared_total")
	setCounter(m, "serve.rejected_total", before, after, "serve_admission_rejected_total")

	reps, err := t.replayMisses(ctx, rec)
	if err != nil {
		return err
	}
	var overhead, compute []float64
	for _, r := range reps {
		overhead = append(overhead, r.roundtripMS-r.computeMS-r.encodeMS)
		compute = append(compute, r.computeMS)
	}
	m["serve.overhead_ms"] = median(overhead)
	// Share of the summed op latency that the misses' compute accounts for,
	// estimated from the replayed sample.
	total := 0.0
	for _, s := range samples {
		total += s.ms
	}
	if total > 0 {
		m["serve.replay_compute_share"] = median(compute) * float64(gets-hits) / total
	}
	return nil
}
