package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"geostat/internal/obs"
	"geostat/internal/serve"
)

// promSampleRE matches one Prometheus text-format sample line:
// name{label="value",...} value
var promSampleRE = regexp.MustCompile(
	`^[a-z][a-z0-9_]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// scrape fetches /metrics, checks every line is well-formed exposition
// text, and returns the sample lines keyed by their series string.
func scrape(t *testing.T, srv *serve.Server) map[string]string {
	t.Helper()
	rr := do(t, srv, http.MethodGet, "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics: Content-Type = %q, want text/plain", ct)
	}
	samples := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(rr.Body.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSampleRE.MatchString(line) {
			t.Fatalf("/metrics: malformed sample line %q", line)
		}
		series, value, _ := strings.Cut(line, " ")
		samples[series] = value
	}
	return samples
}

func TestMetricsEndpointPrometheus(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 8 << 20, Workers: 2})
	generate(t, srv, "name=ev&kind=clusters&n=300&seed=3")

	const tile = "/v1/kdv?dataset=ev&bandwidth=8&width=32&height=32"
	for i := 0; i < 2; i++ { // miss then hit
		if rr := do(t, srv, http.MethodGet, tile, nil); rr.Code != http.StatusOK {
			t.Fatalf("kdv: status %d: %s", rr.Code, rr.Body.String())
		}
	}
	if rr := do(t, srv, http.MethodGet, "/v1/kdv?dataset=ev&kernel=bogus", nil); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad kernel: status %d, want 400", rr.Code)
	}

	samples := scrape(t, srv)
	for series, want := range map[string]string{
		`geostatd_requests_total{tool="kdv"}`:                   "3",
		`geostatd_request_seconds_count{tool="kdv"}`:            "3",
		`geostatd_request_seconds_bucket{tool="kdv",le="+Inf"}`: "3",
		`geostatd_requests_inflight`:                            "0",
		`geostatd_cache_hits_total`:                             "1",
		`geostatd_cache_misses_total`:                           "2",
		`geostatd_errors_total{kind="bad_request"}`:             "1",
	} {
		if got, ok := samples[series]; !ok {
			t.Errorf("missing series %s", series)
		} else if got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}

	// The histogram's TYPE line must be present for Prometheus to accept it.
	rr := do(t, srv, http.MethodGet, "/metrics", nil)
	if !strings.Contains(rr.Body.String(), "# TYPE geostatd_request_seconds histogram") {
		t.Error("missing histogram TYPE line for geostatd_request_seconds")
	}
}

func TestTraceLastSpanTree(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 8 << 20, Workers: 2})

	// Before any tool request the endpoint 404s.
	if rr := do(t, srv, http.MethodGet, "/debug/trace/last", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("empty trace: status %d, want 404", rr.Code)
	}

	generate(t, srv, "name=ev&kind=csr&n=400&seed=5")
	const tile = "/v1/kdv?dataset=ev&bandwidth=8&method=grid-cutoff&width=32&height=32"
	if rr := do(t, srv, http.MethodGet, tile, nil); rr.Code != http.StatusOK {
		t.Fatalf("kdv: status %d: %s", rr.Code, rr.Body.String())
	}

	rr := do(t, srv, http.MethodGet, "/debug/trace/last", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/trace/last: status %d", rr.Code)
	}
	var tree obs.SpanTree
	if err := json.Unmarshal(rr.Body.Bytes(), &tree); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	got := tree.StageNames()
	want := []string{
		"request", "request.lookup", "request.cache",
		"kdv.parse", "kdv.compute", "kde.index_build", "kde.evaluate",
		"parallel.for", "kdv.encode",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stage tree = %v, want %v", got, want)
	}
	var tool string
	for _, a := range tree.Attrs {
		if a.Key == "tool" {
			tool = a.Value
		}
	}
	if tool != "kdv" {
		t.Fatalf("root tool attr = %q, want kdv", tool)
	}
}

// TestKFunctionSpanAttrs: a traced K-function request carries the sizes
// that explain its cost on kfunction.compute — points, thresholds, sims
// and the observed unordered pairs within s_max — and the envelope
// simulations add no span of their own below parallel.monte_carlo.
func TestKFunctionSpanAttrs(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 8 << 20, Workers: 2})
	generate(t, srv, "name=ev&kind=clusters&n=500&seed=5")
	rr := do(t, srv, http.MethodGet, "/v1/kfunction?dataset=ev&smax=6&steps=4&sims=9&seed=3", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("kfunction: status %d: %s", rr.Code, rr.Body.String())
	}
	var resp struct {
		K []float64 `json:"k"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var tree obs.SpanTree
	if err := json.Unmarshal(do(t, srv, http.MethodGet, "/debug/trace/last", nil).Body.Bytes(), &tree); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	want := []string{
		"request", "request.lookup", "request.cache", "kfunction.parse", "kfunction.compute",
		"parallel.for_scratch", "parallel.monte_carlo", "parallel.for_scratch", "kfunction.encode",
	}
	if got := tree.StageNames(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stage tree = %v, want %v", got, want)
	}
	attrs := map[string]string{}
	for _, c := range tree.Children {
		if c.Name == "kfunction.compute" {
			for _, a := range c.Attrs {
				attrs[a.Key] = a.Value
			}
		}
	}
	pairs := int64(resp.K[len(resp.K)-1]) / 2
	if pairs == 0 {
		t.Fatal("no pairs in range: the fixture is too sparse to test the attribute")
	}
	for k, v := range map[string]string{
		"points": "500", "thresholds": "4", "sims": "9", "pairs_in_range": fmt.Sprint(pairs),
	} {
		if attrs[k] != v {
			t.Errorf("kfunction.compute %s = %q, want %s", k, attrs[k], v)
		}
	}
}

// TestAutocorrSpanAttrs pins the span tree of /v1/moran and /v1/generalg
// (the weights build takes no context, so it is a leaf; one
// parallel.monte_carlo under the test — no node per permutation) and the
// attributes that explain a request: points and neighbors (nnz of the
// weight matrix) and memo on <tool>.weights, perms on <tool>.compute —
// memo is miss for the first request over the snapshot and hit for the
// General G request that follows it with the same k. A request refused with
// 400 must not have built a matrix first.
func TestAutocorrSpanAttrs(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 8 << 20, Workers: 2})
	generate(t, srv, "name=ev&kind=clusters&n=300&seed=5&field=true")
	lastTrace := func() obs.SpanTree {
		t.Helper()
		var tree obs.SpanTree
		if err := json.Unmarshal(do(t, srv, http.MethodGet, "/debug/trace/last", nil).Body.Bytes(), &tree); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
		return tree
	}
	memo := map[string]string{"moran": "miss", "generalg": "hit"}
	for _, tool := range []string{"moran", "generalg"} {
		rr := do(t, srv, http.MethodGet, "/v1/"+tool+"?dataset=ev&k=6&perms=29&seed=3", nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tool, rr.Code, rr.Body.String())
		}
		tree := lastTrace()
		want := []string{
			"request", "request.lookup", "request.cache", tool + ".parse", tool + ".weights",
			tool + ".compute", "parallel.monte_carlo", "parallel.for_scratch", tool + ".encode",
		}
		if got := tree.StageNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: stage tree = %v, want %v", tool, got, want)
		}
		attrs := map[string]string{}
		for _, c := range tree.Children {
			for _, a := range c.Attrs {
				attrs[c.Name+"/"+a.Key] = a.Value
			}
		}
		for k, v := range map[string]string{
			tool + ".weights/points": "300", tool + ".weights/neighbors": "1800", tool + ".compute/perms": "29",
			tool + ".weights/memo": memo[tool],
		} {
			if attrs[k] != v {
				t.Errorf("%s = %q, want %s", k, attrs[k], v)
			}
		}

		for _, bad := range []string{"k=abc", "perms=x", "perms=2000000000"} {
			if rr := do(t, srv, http.MethodGet, "/v1/"+tool+"?dataset=ev&"+bad, nil); rr.Code != http.StatusBadRequest {
				t.Fatalf("%s?%s: status %d, want 400", tool, bad, rr.Code)
			}
			refused := lastTrace()
			for _, name := range refused.StageNames() {
				if name == tool+".weights" {
					t.Errorf("%s?%s answered 400 after building the weight matrix", tool, bad)
				}
			}
		}
	}
}

// TestUploadTrace: an upload is traced like a tool request — a root
// request span with tool=upload over upload.read (bytes), upload.decode
// (format, bytes, points) and upload.register — and feeds
// geostatd_request_seconds{tool="upload"}.
func TestUploadTrace(t *testing.T) {
	srv := newServer(t, serve.Config{})
	csv := []byte("x,y,value\n1,2,10\n3,4,20\n5,6,30\n")
	gj := []byte(`{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{"value":10}},` +
		`{"type":"Feature","geometry":{"type":"Point","coordinates":[3,4]},"properties":{"value":20}}]}`)
	for _, up := range []struct {
		format string
		body   []byte
		points int
	}{{"csv", csv, 3}, {"geojson", gj, 2}} {
		if rr := do(t, srv, http.MethodPost, "/v1/datasets/"+up.format, up.body); rr.Code != http.StatusOK {
			t.Fatalf("%s upload: status %d: %s", up.format, rr.Code, rr.Body.String())
		}
		var tree obs.SpanTree
		if err := json.Unmarshal(do(t, srv, http.MethodGet, "/debug/trace/last", nil).Body.Bytes(), &tree); err != nil {
			t.Fatalf("decode trace: %v", err)
		}
		want := []string{"request", "upload.read", "upload.decode", "upload.register"}
		if got := tree.StageNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: stage tree = %v, want %v", up.format, got, want)
		}
		attrs := map[string]string{}
		for _, a := range tree.Attrs {
			attrs["request/"+a.Key] = a.Value
		}
		for _, c := range tree.Children {
			for _, a := range c.Attrs {
				attrs[c.Name+"/"+a.Key] = a.Value
			}
		}
		n := fmt.Sprint(len(up.body))
		for k, v := range map[string]string{
			"request/tool": "upload", "upload.read/bytes": n,
			"upload.decode/format": up.format, "upload.decode/bytes": n,
			"upload.decode/points": fmt.Sprint(up.points),
		} {
			if attrs[k] != v {
				t.Errorf("%s: %s = %q, want %s", up.format, k, attrs[k], v)
			}
		}
	}
	if got := scrape(t, srv)[`geostatd_request_seconds_count{tool="upload"}`]; got != "2" {
		t.Errorf(`geostatd_request_seconds_count{tool="upload"} = %q, want 2`, got)
	}
}

func TestSlowRequestLogging(t *testing.T) {
	var (
		mu  sync.Mutex
		log strings.Builder
	)
	srv := newServer(t, serve.Config{
		CacheBytes:    8 << 20,
		Workers:       2,
		SlowThreshold: time.Nanosecond, // every request is "slow"
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, format+"\n", args...)
		},
	})
	generate(t, srv, "name=ev&kind=csr&n=200&seed=1")
	if rr := do(t, srv, http.MethodGet, "/v1/kdv?dataset=ev&bandwidth=8&width=16&height=16", nil); rr.Code != http.StatusOK {
		t.Fatalf("kdv: status %d", rr.Code)
	}
	mu.Lock()
	out := log.String()
	mu.Unlock()
	for _, frag := range []string{"slow request", "kdv.compute", "tool=kdv"} {
		if !strings.Contains(out, frag) {
			t.Errorf("slow log missing %q:\n%s", frag, out)
		}
	}
}

// TestCacheConcurrentStress hammers the result cache from sixteen
// goroutines with a byte budget small enough to force continuous
// evictions, then checks the accounting invariants. Run under -race this
// doubles as the locking correctness test for its one mutex. Raw
// goroutines are fine in test code.
func TestCacheConcurrentStress(t *testing.T) {
	const capacity = 1 << 14 // 16 KiB: about 57 of the 64 keys fit
	c := serve.NewCache(capacity)
	body := make([]byte, 256)
	const (
		goroutines = 16
		ops        = 3000
		keyspace   = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("tool|ds@1|k=%d", (g*31+i)%keyspace)
				switch i % 3 {
				case 0:
					c.Put(key, serve.Value{Body: body, ContentType: "application/json"})
				case 1:
					c.Get(key)
				case 2:
					if st := c.Stats(); st.Bytes < 0 || st.Entries < 0 {
						t.Errorf("negative occupancy: %+v", st)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Bytes > capacity {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite keyspace exceeding the byte budget")
	}
	if total := st.Hits + st.Misses; total != goroutines*ops/3 {
		t.Fatalf("hits+misses = %d, want %d", total, goroutines*ops/3)
	}
	// Every key that survived must round-trip.
	found := 0
	for k := 0; k < keyspace; k++ {
		if v, ok := c.Get(fmt.Sprintf("tool|ds@1|k=%d", k)); ok {
			found++
			if len(v.Body) != len(body) {
				t.Fatalf("corrupt cached body: %d bytes", len(v.Body))
			}
		}
	}
	if found == 0 {
		t.Fatal("nothing survived in the cache")
	}
}
