package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"geostat/internal/serve"
)

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = -1
	}
	return serve.NewServer(cfg)
}

// do runs one request through the handler stack and returns the recorder.
func do(t *testing.T, srv *serve.Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, r)
	return rr
}

// generate registers a synthetic dataset and fails the test on error.
func generate(t *testing.T, srv *serve.Server, query string) {
	t.Helper()
	rr := do(t, srv, http.MethodPost, "/v1/generate?"+query, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("generate %q: status %d: %s", query, rr.Code, rr.Body.String())
	}
}

func TestKDVTileCachedByteIdentical(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=ev&kind=clusters&n=500&seed=7")

	const tile = "/v1/kdv?dataset=ev&kernel=quartic&bandwidth=8&width=64&height=64&bbox=0,0,50,50"
	first := do(t, srv, http.MethodGet, tile, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first KDV: status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first KDV: X-Cache = %q, want miss", got)
	}
	second := do(t, srv, http.MethodGet, tile, nil)
	if second.Code != http.StatusOK {
		t.Fatalf("second KDV: status %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second KDV: X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("cached replay is not byte-identical to the first response")
	}
}

func TestCacheInvalidatedOnReupload(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=a&kind=csr&n=200&seed=1")
	const q = "/v1/kdv?dataset=a&bandwidth=10&width=16&height=16"
	if rr := do(t, srv, http.MethodGet, q, nil); rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: X-Cache = %q, want miss", rr.Header().Get("X-Cache"))
	}
	// Re-registering the name bumps the registry version, so the same URL
	// must not be served from the old entry.
	generate(t, srv, "name=a&kind=csr&n=200&seed=2")
	if rr := do(t, srv, http.MethodGet, q, nil); rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("request after re-upload: X-Cache = %q, want miss", rr.Header().Get("X-Cache"))
	}
}

// cacheStats reads the result cache's counters off /healthz.
func cacheStats(t *testing.T, srv *serve.Server) serve.CacheStats {
	t.Helper()
	var h struct {
		Cache serve.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(do(t, srv, http.MethodGet, "/healthz", nil).Body.Bytes(), &h); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	return h.Cache
}

// TestLargeBodyIsCached names the failure of the sharded cache: a result
// larger than one sixteenth of the budget was computed again on every
// request — with CacheBytes 1 MiB a 128² format=json KDV (≈ 300 KB)
// answered X-Cache: miss forever. Now the only result refused is one
// larger than the whole budget, and the refusal is counted.
func TestLargeBodyIsCached(t *testing.T) {
	const (
		gen  = "name=d&kind=clusters&n=500&seed=7"
		tile = "/v1/kdv?dataset=d&kernel=quartic&bandwidth=8&width=128&height=128&format=json"
	)
	xcache := func(srv *serve.Server) string {
		t.Helper()
		rr := do(t, srv, http.MethodGet, tile, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
		return rr.Header().Get("X-Cache")
	}
	srv := newServer(t, serve.Config{CacheBytes: 1 << 20})
	generate(t, srv, gen)
	if first, second := xcache(srv), xcache(srv); first != "miss" || second != "hit" {
		t.Fatalf("X-Cache = %q then %q under a 1 MiB budget, want miss then hit", first, second)
	}
	charge := cacheStats(t, srv).Bytes
	if charge < 200_000 || charge > 1<<20/2 {
		t.Fatalf("the 128² JSON raster is charged %d bytes; the test needs one between a sixteenth and a half of 1 MiB", charge)
	}

	exact := newServer(t, serve.Config{CacheBytes: charge})
	generate(t, exact, gen)
	if first, second := xcache(exact), xcache(exact); first != "miss" || second != "hit" {
		t.Fatalf("X-Cache = %q then %q with the budget exactly the body's charge, want miss then hit", first, second)
	}

	tight := newServer(t, serve.Config{CacheBytes: charge - 1})
	generate(t, tight, gen)
	for i := 0; i < 3; i++ {
		if got := xcache(tight); got != "miss" {
			t.Fatalf("request %d: X-Cache = %q for a body one byte over the whole budget, want miss", i, got)
		}
	}
	m := scrape(t, tight)
	if m["geostatd_cache_uncacheable_total"] != "3" || m["geostatd_cache_bytes"] != "0" ||
		m["geostatd_cache_capacity_bytes"] != fmt.Sprint(charge-1) {
		t.Errorf("uncacheable_total = %q, cache_bytes = %q, capacity_bytes = %q; want 3, 0, %d",
			m["geostatd_cache_uncacheable_total"], m["geostatd_cache_bytes"], m["geostatd_cache_capacity_bytes"], charge-1)
	}
	if m := scrape(t, srv); m["geostatd_cache_uncacheable_total"] != "0" || m["geostatd_cache_capacity_bytes"] != "1048576" {
		t.Errorf("1 MiB server: uncacheable_total = %q, capacity_bytes = %q; want 0, 1048576",
			m["geostatd_cache_uncacheable_total"], m["geostatd_cache_capacity_bytes"])
	}
}

// TestReuploadDropsCachedResults: a re-upload frees the bytes of the
// results it orphans at once — occupancy falls to the other datasets'
// share — and every body served afterwards is byte-equal to a fresh
// server's.
func TestReuploadDropsCachedResults(t *testing.T) {
	const (
		genSurvey = "name=survey&kind=clusters&n=400&seed=5&field=true"
		genOther  = "name=survey2&kind=csr&n=300&seed=6&field=true"
	)
	onSurvey := []string{
		"/v1/kdv?dataset=survey&bandwidth=8&width=32&height=32",
		"/v1/kdv?dataset=survey&bandwidth=8&width=32&height=32&format=png",
		"/v1/idw?dataset=survey&method=knn&k=6&width=16&height=16",
		"/v1/moran?dataset=survey&k=6&perms=19&seed=3",
	}
	onOther := []string{
		"/v1/kdv?dataset=survey2&bandwidth=8&width=32&height=32",
		"/v1/idw?dataset=survey2&method=knn&k=6&width=16&height=16",
	}
	get := func(srv *serve.Server, target, wantCache string) []byte {
		t.Helper()
		rr := do(t, srv, http.MethodGet, target, nil)
		if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != wantCache {
			t.Fatalf("%s: status %d, X-Cache %q, want 200 %s", target, rr.Code, rr.Header().Get("X-Cache"), wantCache)
		}
		return rr.Body.Bytes()
	}

	srv := newServer(t, serve.Config{CacheBytes: 8 << 20})
	generate(t, srv, genOther)
	for _, target := range onOther {
		get(srv, target, "miss")
	}
	others := cacheStats(t, srv)
	generate(t, srv, genSurvey) // a first upload of the name drops nothing
	ref := newServer(t, serve.Config{CacheBytes: 8 << 20})
	generate(t, ref, genSurvey)
	fresh := make([][]byte, len(onSurvey))
	for i, target := range onSurvey {
		fresh[i] = get(ref, target, "miss")
		get(srv, target, "miss")
	}
	if full := cacheStats(t, srv); full.Entries != others.Entries+int64(len(onSurvey)) || full.Bytes <= others.Bytes {
		t.Fatalf("before the re-upload: %+v, want %d entries", full, others.Entries+int64(len(onSurvey)))
	}

	generate(t, srv, genSurvey)
	after := cacheStats(t, srv)
	if after.Entries != others.Entries || after.Bytes != others.Bytes || after.Evictions != 0 {
		t.Fatalf("after the re-upload: %d entries, %d bytes, %d evictions; want the other dataset's %d entries, %d bytes and no eviction",
			after.Entries, after.Bytes, after.Evictions, others.Entries, others.Bytes)
	}
	for _, target := range onOther {
		get(srv, target, "hit")
	}
	for i, target := range onSurvey {
		if body := get(srv, target, "miss"); !bytes.Equal(body, fresh[i]) {
			t.Errorf("%s after the re-upload differs from a fresh server's body", target)
		}
		get(srv, target, "hit")
	}
}

// heavyKDV is a naive-method KDV request big enough that it cannot finish
// before the cancellation tests fire (5.2e9 kernel evaluations), while
// the worker pools still observe ctx between row chunks.
const heavyKDV = "/v1/kdv?dataset=big&method=naive&kernel=gaussian&bandwidth=5&width=512&height=512"

func TestCancelledRequestReturns499(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=big&kind=csr&n=20000&seed=3")

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, heavyKDV, nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rr, r)
	elapsed := time.Since(start)

	if rr.Code != serve.StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", rr.Code, serve.StatusClientClosedRequest, rr.Body.String())
	}
	// The computation alone would run for minutes (plain) to tens of
	// minutes (-race); the bound below proves the workers stopped at the
	// first chunk boundary after cancel. The worst case is serial under
	// -race: one chunk is ny/32 rows ≈ 1/32 of the full run, which the
	// race detector stretches to >10s on a single-core machine — so the
	// ceiling is sized to one serial race-mode chunk plus margin, not to
	// wall-clock "promptness".
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled request took %s, want return within one chunk", elapsed)
	}
}

func TestPreCancelledRequestReturns499(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 2})
	generate(t, srv, "name=big&kind=csr&n=20000&seed=3")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodGet, heavyKDV, nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, r)
	if rr.Code != serve.StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rr.Code, serve.StatusClientClosedRequest)
	}
}

func TestTimeoutReturns504WithRetryAfter(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20, Timeout: 20 * time.Millisecond})
	generate(t, srv, "name=big&kind=csr&n=20000&seed=3")
	rr := do(t, srv, http.MethodGet, heavyKDV, nil)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("504 response is missing Retry-After")
	}
}

func TestCancelledRequestsLeaveNoGoroutines(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=big&kind=csr&n=20000&seed=3")
	baseline := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		r := httptest.NewRequest(http.MethodGet, heavyKDV, nil).WithContext(ctx)
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, r)
		cancel()
		if rr.Code != serve.StatusClientClosedRequest {
			t.Fatalf("request %d: status = %d, want %d", i, rr.Code, serve.StatusClientClosedRequest)
		}
	}

	// The 499 now returns as soon as the waiter detaches; the flight
	// goroutine and its worker pool unwind in the background at the next
	// chunk boundary, which under -race on a loaded single core can take
	// tens of seconds (see the ceiling rationale in
	// TestCancelledRequestReturns499). Size the settle deadline to that
	// worst case, not to wall-clock promptness.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestUploadCSV(t *testing.T) {
	srv := newServer(t, serve.Config{})
	csv := "x,y,value\n1,2,10\n3,4,20\n5,6,30\n"
	rr := do(t, srv, http.MethodPost, "/v1/datasets/pts", []byte(csv))
	if rr.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", rr.Code, rr.Body.String())
	}
	var info struct {
		Name      string `json:"name"`
		N         int    `json:"n"`
		HasValues bool   `json:"has_values"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "pts" || info.N != 3 || !info.HasValues {
		t.Fatalf("unexpected upload info: %+v", info)
	}
}

func TestUploadGeoJSON(t *testing.T) {
	srv := newServer(t, serve.Config{})
	gj := `{"type":"FeatureCollection","features":[
		{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{"value":10}},
		{"type":"Feature","geometry":{"type":"Point","coordinates":[3,4]},"properties":{"value":20}}]}`
	rr := do(t, srv, http.MethodPost, "/v1/datasets/gj", []byte(gj))
	if rr.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", rr.Code, rr.Body.String())
	}
	list := do(t, srv, http.MethodGet, "/v1/datasets", nil)
	if !strings.Contains(list.Body.String(), `"name":"gj"`) {
		t.Fatalf("dataset list missing gj: %s", list.Body.String())
	}
}

// TestListDatasetsSorted: GET /v1/datasets lists names sorted. The names
// are registered in decreasing order, and a small Go map ranges as a
// rotation of its insertion order, which for these names is never sorted:
// a listing that skips the sort fails here on every run.
func TestListDatasetsSorted(t *testing.T) {
	srv := newServer(t, serve.Config{})
	want := []string{"a", "b", "c", "d", "e"}
	for i := len(want) - 1; i >= 0; i-- {
		generate(t, srv, "name="+want[i]+"&kind=csr&n=10&seed=1")
	}
	rr := do(t, srv, http.MethodGet, "/v1/datasets", nil)
	var list struct {
		Datasets []serve.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &list); err != nil {
		t.Fatalf("list: %v: %s", err, rr.Body.String())
	}
	var got []string
	for _, d := range list.Datasets {
		got = append(got, d.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("GET /v1/datasets names %v, want %v", got, want)
	}
}

func TestUnknownDatasetIs404(t *testing.T) {
	srv := newServer(t, serve.Config{})
	rr := do(t, srv, http.MethodGet, "/v1/kdv?dataset=nope", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rr.Code)
	}
}

func TestBadParamsAre400(t *testing.T) {
	srv := newServer(t, serve.Config{})
	generate(t, srv, "name=d&kind=csr&n=100&seed=1")
	for _, target := range []string{
		"/v1/kdv?dataset=d&width=notanumber",
		"/v1/kdv?dataset=d&method=wat",
		"/v1/kdv?dataset=d&kernel=wat",
		"/v1/kdv?dataset=d&bbox=1,2,3",
		"/v1/idw?dataset=d&method=wat",
		"/v1/kfunction?dataset=d&steps=0",
		"/v1/kfunction?dataset=d&smax=-1",
	} {
		if rr := do(t, srv, http.MethodGet, target, nil); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", target, rr.Code)
		}
	}
	if rr := do(t, srv, http.MethodPost, "/v1/generate?name=&kind=csr", nil); rr.Code != http.StatusBadRequest {
		t.Errorf("generate without name: status = %d, want 400", rr.Code)
	}
}

func TestAllToolsHappyPath(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=d&kind=clusters&n=300&seed=5&field=1")
	for _, target := range []string{
		"/v1/kdv?dataset=d&bandwidth=8&width=32&height=32",
		"/v1/kfunction?dataset=d&smax=20&steps=5&sims=9&seed=2",
		"/v1/moran?dataset=d&perms=49&seed=2&k=6",
		"/v1/generalg?dataset=d&perms=49&seed=2&k=6",
		"/v1/idw?dataset=d&method=knn&k=6&width=32&height=32",
		"/v1/idw?dataset=d&method=radius&radius=25&width=16&height=16",
		"/v1/idw?dataset=d&width=16&height=16",
	} {
		rr := do(t, srv, http.MethodGet, target, nil)
		if rr.Code != http.StatusOK {
			t.Errorf("%s: status = %d: %s", target, rr.Code, rr.Body.String())
			continue
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Errorf("%s: response is not valid JSON", target)
		}
	}
}

func TestKDVPNGFormat(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=d&kind=csr&n=200&seed=1")
	rr := do(t, srv, http.MethodGet, "/v1/kdv?dataset=d&bandwidth=10&width=24&height=24&format=png", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "image/png" {
		t.Fatalf("Content-Type = %q, want image/png", ct)
	}
	if !bytes.HasPrefix(rr.Body.Bytes(), []byte("\x89PNG")) {
		t.Fatal("body does not start with the PNG magic")
	}
}

func TestHealthzReportsCacheStats(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=d&kind=csr&n=200&seed=1")
	const q = "/v1/kdv?dataset=d&bandwidth=10&width=16&height=16"
	do(t, srv, http.MethodGet, q, nil)
	do(t, srv, http.MethodGet, q, nil)
	rr := do(t, srv, http.MethodGet, "/healthz", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rr.Code)
	}
	var h struct {
		Status string `json:"status"`
		Cache  struct {
			Hits    int64 `json:"hits"`
			Entries int64 `json:"entries"`
		} `json:"cache"`
		CacheHitRate float64 `json:"cache_hit_rate"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Cache.Hits != 1 || h.Cache.Entries != 1 || h.CacheHitRate <= 0 {
		t.Fatalf("unexpected healthz payload: %s", rr.Body.String())
	}
}

// TestMetricsIsTheOneCounterSurface pins the per-server registry at
// /metrics as the only place request counters live: a fresh server's
// series start at zero, so the values are absolute, and the process-wide
// /debug/vars page that used to double-book them is gone.
func TestMetricsIsTheOneCounterSurface(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	generate(t, srv, "name=d&kind=csr&n=200&seed=1")
	const q = "/v1/kdv?dataset=d&bandwidth=10&width=16&height=16&seed=42"
	do(t, srv, http.MethodGet, q, nil)
	do(t, srv, http.MethodGet, q, nil)

	samples := scrape(t, srv)
	for series, want := range map[string]string{
		`geostatd_requests_total{tool="kdv"}`: "2",
		`geostatd_cache_hits_total`:           "1",
		`geostatd_cache_misses_total`:         "1",
		`geostatd_requests_inflight`:          "0",
	} {
		if got := samples[series]; got != want {
			t.Errorf("%s = %q, want %s", series, got, want)
		}
	}
	if rr := do(t, srv, http.MethodGet, "/debug/vars", nil); rr.Code != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404", rr.Code)
	}
}

func TestRealHTTPServerRoundTrip(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/generate?name=d&kind=csr&n=200&seed=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate over HTTP: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/kdv?dataset=d&bandwidth=10&width=16&height=16")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kdv over HTTP: status %d", resp.StatusCode)
	}
}

func TestMaxInFlightQueuesRatherThanFails(t *testing.T) {
	srv := newServer(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 1, Workers: 1})
	generate(t, srv, "name=d&kind=csr&n=500&seed=1")
	// With one slot and sequential requests every request must still run.
	for i := 0; i < 3; i++ {
		q := fmt.Sprintf("/v1/kdv?dataset=d&bandwidth=10&width=16&height=16&seed=%d", i)
		if rr := do(t, srv, http.MethodGet, q, nil); rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rr.Code)
		}
	}
}
