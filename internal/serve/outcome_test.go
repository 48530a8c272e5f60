package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"geostat/internal/serve"
)

// The tests in this file hold every route's outcomes to what a client
// sees over a real listener — status, headers, body — and to what the
// server books for it at /metrics. A client's own tally of its requests
// and the server's counters must agree request for request: each
// request is counted once for its tool, each error once under its kind,
// and nothing else moves.

// wire is a Server behind a real TCP listener, with the client that
// talks to it.
type wire struct {
	ts *httptest.Server
	c  *http.Client
}

// newWire boots a server behind a listener with the datasets the
// outcome tests use: "d" (clustered, with values), "plain" (no values)
// and "big" (the occupiers' input).
func newWire(t *testing.T, cfg serve.Config) *wire {
	t.Helper()
	srv := newServer(t, cfg)
	generate(t, srv, "name=d&kind=clusters&n=300&seed=5&field=1")
	generate(t, srv, "name=plain&kind=csr&n=300&seed=6")
	generate(t, srv, "name=big&kind=csr&n=20000&seed=3")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &wire{ts: ts, c: ts.Client()}
}

// reply is one response as the client received it.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// send issues one request over the listener. A nil body sends none; a
// body wrapped by chunked is sent without a Content-Length.
func (w *wire) send(ctx context.Context, method, path string, body io.Reader) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.ts.URL+path, body)
	if err != nil {
		return reply{}, err
	}
	resp, err := w.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{code: resp.StatusCode, header: resp.Header, body: b}, err
}

// get is send for a GET that must reach the server and come back.
func (w *wire) get(t *testing.T, path string) reply {
	t.Helper()
	r, err := w.send(context.Background(), http.MethodGet, path, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return r
}

// metrics scrapes /metrics over the listener into series → value.
func (w *wire) metrics(t *testing.T) map[string]float64 {
	t.Helper()
	r := w.get(t, "/metrics")
	if r.code != http.StatusOK {
		t.Fatalf("/metrics: status %d", r.code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("/metrics: line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// await polls a /metrics series over the listener until cond holds.
func (w *wire) await(t *testing.T, series string, cond func(float64) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := w.metrics(t)[series]
		if cond(v) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v: condition never held", series, v)
		}
		time.Sleep(time.Millisecond)
	}
}

func atLeast(n float64) func(float64) bool { return func(v float64) bool { return v >= n } }
func equal(n float64) func(float64) bool   { return func(v float64) bool { return v == n } }

// holdSlot fills a single-slot server: one distinct slow KDV computes and
// a second waits in the admission queue, so the slot is provably taken
// (a computation queues only behind a held slot). release hangs both up
// and waits until every request on the server has finished.
func (w *wire) holdSlot(t *testing.T) (release func()) {
	t.Helper()
	ctx, hangUp := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, jitter := range []string{"5", "6"} {
		wg.Add(1)
		go func(jitter string) {
			defer wg.Done()
			_, _ = w.send(ctx, http.MethodGet, slowKDV+"&bandwidthjitter="+jitter, nil)
		}(jitter)
	}
	w.await(t, "serve_admission_queue_count", atLeast(1))
	var once sync.Once
	release = func() {
		once.Do(func() {
			hangUp()
			wg.Wait()
			w.await(t, "geostatd_requests_inflight", equal(0))
		})
	}
	t.Cleanup(release)
	return release
}

// accounted lists the counters every outcome test holds to an exact
// delta: a series a case does not name must not move.
var accounted = func() []string {
	var s []string
	for _, tool := range []string{"kdv", "kfunction", "moran", "generalg", "idw", "upload"} {
		s = append(s,
			`geostatd_requests_total{tool="`+tool+`"}`,
			`geostatd_request_seconds_count{tool="`+tool+`"}`)
	}
	for _, kind := range []string{"bad_request", "not_found", "canceled", "overload", "timeout", "too_large", "internal"} {
		s = append(s, errorsKind(kind))
	}
	return append(s,
		"serve_compute_total",
		"serve_singleflight_shared_total",
		"serve_admission_rejected_total",
		"geostatd_cache_hits_total",
		"geostatd_cache_misses_total")
}()

func errorsKind(kind string) string { return `geostatd_errors_total{kind="` + kind + `"}` }
func requests(tool string) string   { return `geostatd_requests_total{tool="` + tool + `"}` }
func seconds(tool string) string    { return `geostatd_request_seconds_count{tool="` + tool + `"}` }

// checkDeltas compares after − before on every accounted series with want.
func checkDeltas(t *testing.T, before, after, want map[string]float64) {
	t.Helper()
	for _, series := range accounted {
		if got := after[series] - before[series]; got != want[series] {
			t.Errorf("%s moved by %v, want %v", series, got, want[series])
		}
	}
	for series := range want {
		found := false
		for _, a := range accounted {
			found = found || a == series
		}
		if !found {
			t.Fatalf("want names %s, which is not an accounted series", series)
		}
	}
}

// checkError asserts an error reply: its status, the JSON {"error": msg}
// body (msg "" accepts any non-empty message) and Retry-After exactly
// when the status invites a retry.
func checkError(t *testing.T, r reply, status int, msg string) {
	t.Helper()
	if r.code != status {
		t.Fatalf("status %d, want %d: %s", r.code, status, r.body)
	}
	if ct := r.header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(r.body, &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", r.body, err)
	}
	if e.Error == "" || (msg != "" && e.Error != msg) {
		t.Errorf("error = %q, want %q", e.Error, msg)
	}
	retry := status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout
	if got := r.header.Get("Retry-After"); retry && got != "1" || !retry && got != "" {
		t.Errorf("Retry-After = %q on a %d", got, status)
	}
	if got := r.header.Get("X-Cache"); got != "" {
		t.Errorf("X-Cache = %q on an error reply, want none", got)
	}
}

// checkOK asserts a successful tool reply and its X-Cache header.
func checkOK(t *testing.T, r reply, xcache string) {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", r.code, r.body)
	}
	if ct := r.header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if !json.Valid(r.body) {
		t.Errorf("body is not valid JSON: %.80s", r.body)
	}
	if got := r.header.Get("X-Cache"); got != xcache {
		t.Errorf("X-Cache = %q, want %q", got, xcache)
	}
	if got := r.header.Get("Retry-After"); got != "" {
		t.Errorf("Retry-After = %q on a 200", got)
	}
}

// toolRoute is one tool with a query that succeeds on "d" and one that
// fails its parameter parsing. needsValues marks the tools that refuse a
// dataset without measured values.
type toolRoute struct {
	tool, query, bad string
	needsValues      bool
}

func (r toolRoute) on(dataset, query string) string {
	return "/v1/" + r.tool + "?dataset=" + dataset + "&" + query
}

var toolRoutes = []toolRoute{
	{"kdv", "bandwidth=8&width=16&height=16", "kernel=bogus", false},
	{"kfunction", "smax=20&steps=5&sims=9&seed=2", "steps=0", false},
	{"moran", "perms=49&seed=2&k=6", "k=abc", true},
	{"generalg", "perms=49&seed=2&k=6", "perms=abc", true},
	{"idw", "method=knn&k=6&width=16&height=16", "method=wat", true},
}

// TestListenerToolOutcomes drives every tool through each outcome the
// serving harness can produce — miss, hit, missing or unknown dataset,
// bad parameters, a dataset the tool cannot use, admission overflow,
// budget overrun, a hang-up while queued, and coalescing behind a busy
// slot — over a real listener, and checks the reply and the exact move
// of every accounted counter.
func TestListenerToolOutcomes(t *testing.T) {
	outcomes := []struct {
		name string
		run  func(t *testing.T, r toolRoute)
	}{
		{"miss", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20})
			before := w.metrics(t)
			checkOK(t, w.get(t, r.on("d", r.query)), "miss")
			checkDeltas(t, before, w.metrics(t), map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1,
				"geostatd_cache_misses_total": 1, "serve_compute_total": 1,
			})
		}},
		{"hit", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20})
			before := w.metrics(t)
			first := w.get(t, r.on("d", r.query))
			checkOK(t, first, "miss")
			second := w.get(t, r.on("d", r.query))
			checkOK(t, second, "hit")
			if !bytes.Equal(first.body, second.body) {
				t.Error("cached replay is not byte-identical to the first reply")
			}
			checkDeltas(t, before, w.metrics(t), map[string]float64{
				requests(r.tool): 2, seconds(r.tool): 2,
				"geostatd_cache_misses_total": 1, "geostatd_cache_hits_total": 1,
				"serve_compute_total": 1,
			})
		}},
		{"missing_dataset", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20})
			before := w.metrics(t)
			checkError(t, w.get(t, "/v1/"+r.tool+"?"+r.query), http.StatusBadRequest, "missing dataset parameter")
			checkDeltas(t, before, w.metrics(t), map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1, errorsKind("bad_request"): 1,
			})
		}},
		{"unknown_dataset", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20})
			before := w.metrics(t)
			checkError(t, w.get(t, r.on("nope", r.query)), http.StatusNotFound, `unknown dataset "nope"`)
			checkDeltas(t, before, w.metrics(t), map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1, errorsKind("not_found"): 1,
			})
		}},
		{"bad_param_is_never_cached", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20})
			before := w.metrics(t)
			first := w.get(t, r.on("d", r.bad))
			checkError(t, first, http.StatusBadRequest, "")
			second := w.get(t, r.on("d", r.bad))
			checkError(t, second, http.StatusBadRequest, "")
			if !bytes.Equal(first.body, second.body) {
				t.Errorf("the same bad request got two different errors: %s / %s", first.body, second.body)
			}
			after := w.metrics(t)
			checkDeltas(t, before, after, map[string]float64{
				requests(r.tool): 2, seconds(r.tool): 2, errorsKind("bad_request"): 2,
				"geostatd_cache_misses_total": 2, "serve_compute_total": 2,
			})
			if got := after["geostatd_cache_entries_count"]; got != 0 {
				t.Errorf("geostatd_cache_entries_count = %v after two errors, want 0", got)
			}
		}},
		{"dataset_without_values", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20})
			before := w.metrics(t)
			got := w.get(t, r.on("plain", r.query))
			want := map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1,
				"geostatd_cache_misses_total": 1, "serve_compute_total": 1,
			}
			if r.needsValues {
				checkError(t, got, http.StatusBadRequest, "")
				want[errorsKind("bad_request")] = 1
			} else {
				checkOK(t, got, "miss")
			}
			checkDeltas(t, before, w.metrics(t), want)
		}},
		{"admission_overflow_503", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 1, MaxQueue: 1})
			release := w.holdSlot(t)
			before := w.metrics(t)
			checkError(t, w.get(t, r.on("d", r.query)), http.StatusServiceUnavailable, "")
			checkDeltas(t, before, w.metrics(t), map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1, errorsKind("overload"): 1,
				"geostatd_cache_misses_total": 1, "serve_compute_total": 1,
				"serve_admission_rejected_total": 1,
			})
			release()
			// Once the occupiers are gone the same request is admitted.
			checkOK(t, w.get(t, r.on("d", r.query)), "miss")
		}},
		{"budget_overrun_504", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{
				CacheBytes:   64 << 20,
				Timeout:      time.Minute,
				ToolTimeouts: map[string]time.Duration{r.tool: time.Nanosecond},
			})
			before := w.metrics(t)
			checkError(t, w.get(t, r.on("d", r.query)), http.StatusGatewayTimeout, "")
			after := w.metrics(t)
			checkDeltas(t, before, after, map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1, errorsKind("timeout"): 1,
				"geostatd_cache_misses_total": 1, "serve_compute_total": 1,
			})
			if got := after["geostatd_cache_entries_count"]; got != 0 {
				t.Errorf("geostatd_cache_entries_count = %v after a 504, want 0", got)
			}
		}},
		{"hang_up_while_queued", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 1})
			release := w.holdSlot(t)
			before := w.metrics(t)
			ctx, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			done := make(chan error, 1)
			go func() {
				_, err := w.send(ctx, http.MethodGet, r.on("d", r.query), nil)
				done <- err
			}()
			w.await(t, "serve_admission_queue_count", equal(2))
			hangUp()
			if err := <-done; err == nil {
				t.Fatal("the hung-up request got a reply")
			}
			w.await(t, seconds(r.tool), equal(before[seconds(r.tool)]+1))
			w.await(t, "serve_admission_queue_count", equal(1))
			checkDeltas(t, before, w.metrics(t), map[string]float64{
				requests(r.tool): 1, seconds(r.tool): 1, errorsKind("canceled"): 1,
				"geostatd_cache_misses_total": 1, "serve_compute_total": 1,
			})
			release()
			if got := w.metrics(t)["geostatd_cache_entries_count"]; got != 0 {
				t.Errorf("geostatd_cache_entries_count = %v: the abandoned request computed", got)
			}
		}},
		{"coalesced_behind_busy_slot", func(t *testing.T, r toolRoute) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 1})
			release := w.holdSlot(t)
			before := w.metrics(t)
			const n = 3
			replies := make([]reply, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					replies[i], errs[i] = w.send(context.Background(), http.MethodGet, r.on("d", r.query), nil)
				}(i)
			}
			w.await(t, "serve_singleflight_shared_total", equal(before["serve_singleflight_shared_total"]+n-1))
			release()
			wg.Wait()
			misses, coalesced := 0, 0
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if replies[i].code != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, replies[i].code, replies[i].body)
				}
				if !bytes.Equal(replies[i].body, replies[0].body) {
					t.Errorf("request %d: body differs from request 0", i)
				}
				switch replies[i].header.Get("X-Cache") {
				case "miss":
					misses++
				case "coalesced":
					coalesced++
				}
			}
			if misses != 1 || coalesced != n-1 {
				t.Errorf("X-Cache: %d miss, %d coalesced; want 1 and %d", misses, coalesced, n-1)
			}
			// release hung up the two occupying KDVs: both count as canceled.
			want := map[string]float64{
				requests(r.tool): n, seconds(r.tool): n,
				"geostatd_cache_misses_total": n, "serve_compute_total": 1,
				"serve_singleflight_shared_total": n - 1,
				errorsKind("canceled"):            2,
			}
			want[seconds("kdv")] += 2
			checkDeltas(t, before, w.metrics(t), want)
		}},
	}
	for _, r := range toolRoutes {
		for _, oc := range outcomes {
			t.Run(r.tool+"/"+oc.name, func(t *testing.T) { oc.run(t, r) })
		}
	}
}

// chunked hides a body's length, so the client sends it chunked.
type chunked struct{ io.Reader }

// TestListenerRouteOutcomes covers the routes outside the tool harness
// the same way: dataset management, generation, the operator endpoints,
// and what the router itself answers for an unknown path or method.
// Router replies are not tool errors and book no counter.
func TestListenerRouteOutcomes(t *testing.T) {
	const csv = "x,y\n1,2\n3,4\n5,6\n"
	const geo = `{"type":"FeatureCollection","features":[` +
		`{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{}},` +
		`{"type":"Feature","geometry":{"type":"Point","coordinates":[3,4]},"properties":{}}]}`
	oversized := strings.Repeat("1,2\n", 2048) // 8 KiB against a 4 KiB cap
	cases := []struct {
		name         string
		method, path string
		body         io.Reader
		status       int
		errMsg       string // "" accepts any message on an error status
		contentType  string // checked on non-error replies
		want         map[string]float64
		bodyHas      string
	}{
		{name: "healthz", method: "GET", path: "/healthz", status: 200,
			contentType: "application/json", bodyHas: `"status":"ok"`},
		{name: "healthz_head", method: "HEAD", path: "/healthz", status: 200,
			contentType: "application/json"},
		{name: "metrics", method: "GET", path: "/metrics", status: 200,
			contentType: "text/plain; version=0.0.4; charset=utf-8", bodyHas: "# TYPE serve_admission_queue_count gauge"},
		{name: "list_datasets", method: "GET", path: "/v1/datasets", status: 200,
			contentType: "application/json", bodyHas: `"name":"plain"`},
		{name: "digest", method: "GET", path: "/v1/datasets/d/digest", status: 200,
			contentType: "application/json", bodyHas: `"digest":"`},
		{name: "digest_unknown", method: "GET", path: "/v1/datasets/nope/digest",
			status: 404, errMsg: `unknown dataset "nope"`,
			want: map[string]float64{errorsKind("not_found"): 1}},
		{name: "upload_csv", method: "POST", path: "/v1/datasets/u", body: strings.NewReader(csv),
			status: 200, contentType: "application/json", bodyHas: `"n":3`,
			want: map[string]float64{seconds("upload"): 1}},
		{name: "upload_csv_chunked", method: "POST", path: "/v1/datasets/u", body: chunked{strings.NewReader(csv)},
			status: 200, contentType: "application/json", bodyHas: `"n":3`,
			want: map[string]float64{seconds("upload"): 1}},
		{name: "upload_geojson", method: "POST", path: "/v1/datasets/u", body: strings.NewReader(geo),
			status: 200, contentType: "application/json", bodyHas: `"n":2`,
			want: map[string]float64{seconds("upload"): 1}},
		{name: "upload_bad_csv", method: "POST", path: "/v1/datasets/u", body: strings.NewReader("x,y\n1,abc\n"),
			status: 400, want: map[string]float64{seconds("upload"): 1, errorsKind("bad_request"): 1}},
		{name: "upload_bad_geojson", method: "POST", path: "/v1/datasets/u", body: strings.NewReader(`{"type":`),
			status: 400, want: map[string]float64{seconds("upload"): 1, errorsKind("bad_request"): 1}},
		{name: "upload_declared_over_cap", method: "POST", path: "/v1/datasets/u", body: strings.NewReader(oversized),
			status: 413, want: map[string]float64{seconds("upload"): 1, errorsKind("too_large"): 1}},
		{name: "upload_chunked_over_cap", method: "POST", path: "/v1/datasets/u", body: chunked{strings.NewReader(oversized)},
			status: 413, want: map[string]float64{seconds("upload"): 1, errorsKind("too_large"): 1}},
		{name: "generate", method: "POST", path: "/v1/generate?name=g&kind=outbreak&n=50&seed=1", status: 200,
			contentType: "application/json", bodyHas: `"has_times":true`},
		{name: "generate_without_name", method: "POST", path: "/v1/generate?kind=csr",
			status: 400, errMsg: "missing name parameter",
			want: map[string]float64{errorsKind("bad_request"): 1}},
		{name: "generate_unknown_kind", method: "POST", path: "/v1/generate?name=g&kind=wat",
			status: 400, errMsg: `unknown kind "wat" (csr|clusters|outbreak)`,
			want: map[string]float64{errorsKind("bad_request"): 1}},
		{name: "generate_n_out_of_range", method: "POST", path: "/v1/generate?name=g&n=0",
			status: 400, errMsg: "n must be in [1, 1000000]",
			want: map[string]float64{errorsKind("bad_request"): 1}},
		{name: "generate_bad_number", method: "POST", path: "/v1/generate?name=g&n=many",
			status: 400, want: map[string]float64{errorsKind("bad_request"): 1}},
		{name: "trace_before_any_request", method: "GET", path: "/debug/trace/last",
			status: 404, errMsg: "no tool request or upload traced yet",
			want: map[string]float64{errorsKind("not_found"): 1}},
		{name: "unknown_path", method: "GET", path: "/v1/nope?dataset=d", status: 404,
			contentType: "text/plain; charset=utf-8", bodyHas: "404 page not found"},
		{name: "tool_wrong_method", method: "POST", path: "/v1/kdv?dataset=d", status: 405,
			contentType: "text/plain; charset=utf-8"},
		{name: "upload_wrong_method", method: "GET", path: "/v1/datasets/d", status: 405,
			contentType: "text/plain; charset=utf-8"},
		{name: "debug_vars_not_served", method: "GET", path: "/debug/vars", status: 404,
			contentType: "text/plain; charset=utf-8"},
		{name: "pprof_not_on_public_port", method: "GET", path: "/debug/pprof/", status: 404,
			contentType: "text/plain; charset=utf-8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWire(t, serve.Config{CacheBytes: 64 << 20, MaxBodyBytes: 4096})
			before := w.metrics(t)
			r, err := w.send(context.Background(), tc.method, tc.path, tc.body)
			if err != nil {
				t.Fatal(err)
			}
			after := w.metrics(t)
			if tc.status >= 400 && tc.contentType == "" {
				checkError(t, r, tc.status, tc.errMsg)
			} else {
				if r.code != tc.status {
					t.Fatalf("status %d, want %d: %s", r.code, tc.status, r.body)
				}
				if ct := r.header.Get("Content-Type"); ct != tc.contentType {
					t.Errorf("Content-Type = %q, want %q", ct, tc.contentType)
				}
				if !strings.Contains(string(r.body), tc.bodyHas) {
					t.Errorf("body %.200q lacks %q", r.body, tc.bodyHas)
				}
			}
			if tc.status == http.StatusMethodNotAllowed && r.header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
			if tc.method == http.MethodHead && len(r.body) != 0 {
				t.Errorf("HEAD reply carries %d body bytes", len(r.body))
			}
			checkDeltas(t, before, after, tc.want)
			if got := after["geostatd_requests_inflight"]; got != 0 {
				t.Errorf("geostatd_requests_inflight = %v, want 0", got)
			}
		})
	}
}

// TestListenerBodiesIndependentOfWorkers fetches each request from a
// serial server and from a four-worker one, over their listeners: the
// bodies must be byte-identical, for the exact methods, the seeded
// approximate and Monte Carlo ones, both formats and a tile window.
func TestListenerBodiesIndependentOfWorkers(t *testing.T) {
	serial := newWire(t, serve.Config{Workers: 1})
	parallel := newWire(t, serve.Config{Workers: 4})
	for _, q := range []struct{ name, path string }{
		{"kdv_naive_gaussian", "/v1/kdv?dataset=d&method=naive&kernel=gaussian&bandwidth=6&width=40&height=40"},
		{"kdv_sweep_line_png", "/v1/kdv?dataset=d&method=sweep-line&kernel=quartic&bandwidth=8&width=40&height=40&format=png"},
		{"kdv_grid_cutoff", "/v1/kdv?dataset=d&method=grid-cutoff&kernel=epanechnikov&bandwidth=8&width=40&height=40"},
		{"kdv_bound_approx", "/v1/kdv?dataset=d&method=bound-approx&kernel=gaussian&bandwidth=6&epsilon=0.05&width=40&height=40"},
		{"kdv_sampled", "/v1/kdv?dataset=d&method=sampled&kernel=quartic&bandwidth=8&epsilon=0.1&delta=0.1&seed=3&width=40&height=40"},
		{"kdv_tile_window", "/v1/kdv?dataset=d&method=naive&kernel=quartic&bandwidth=8&width=40&height=40&tile=8,8,16,16"},
		{"kdv_silverman", "/v1/kdv?dataset=big&width=40&height=40"},
		{"kfunction_envelope", "/v1/kfunction?dataset=d&smax=20&steps=6&sims=19&seed=4"},
		{"moran_permutations", "/v1/moran?dataset=d&perms=99&seed=5&k=6"},
		{"generalg_permutations", "/v1/generalg?dataset=d&perms=99&seed=5&k=6"},
		{"idw_knn", "/v1/idw?dataset=d&method=knn&k=6&width=24&height=24"},
		{"idw_radius", "/v1/idw?dataset=d&method=radius&radius=25&width=24&height=24"},
		{"idw_naive", "/v1/idw?dataset=d&width=24&height=24"},
	} {
		t.Run(q.name, func(t *testing.T) {
			a, b := serial.get(t, q.path), parallel.get(t, q.path)
			if a.code != http.StatusOK || b.code != http.StatusOK {
				t.Fatalf("status %d (1 worker) / %d (4 workers): %s %s", a.code, b.code, a.body, b.body)
			}
			if !bytes.Equal(a.body, b.body) {
				t.Fatalf("bodies differ between 1 and 4 workers (%d vs %d bytes)", len(a.body), len(b.body))
			}
		})
	}
}
