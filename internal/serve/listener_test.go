package serve_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"geostat/internal/serve"
)

// The tests in this file drive the server through a real TCP listener
// and a real http.Client, so a client hanging up is a closed connection
// the server has to notice, not a cancelled in-process context.

// fetch issues one GET and returns its status, X-Cache header and body.
func fetch(ctx context.Context, c *http.Client, url string) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), body, err
}

func listen(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := newServer(t, cfg)
	generate(t, srv, "name=big&kind=csr&n=20000&seed=3")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestListenerHammerCoalesces sends six lockstep clients the identical
// KDV request over TCP. A computation the test later hangs up on holds
// the only in-flight slot, so the hammer's flight queues and every
// duplicate attaches to it: coalescing is forced, not left to a race.
// All six must get 200 with byte-identical bodies, and the serve_*
// counters must account for every request.
func TestListenerHammerCoalesces(t *testing.T) {
	srv, ts := listen(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 1})
	client := ts.Client()

	occupy, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	occupied := make(chan error, 1)
	go func() {
		_, _, _, err := fetch(occupy, client, ts.URL+slowKDV)
		occupied <- err
	}()
	waitMetric(t, srv, "serve_compute_total", 1, 10*time.Second)

	const n = 6
	const hammer = "/v1/kdv?dataset=big&method=naive&kernel=gaussian&bandwidth=5&width=48&height=48"
	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make([]int, n)
	xcache := make([]string, n)
	bodies := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], xcache[i], bodies[i], errs[i] = fetch(context.Background(), client, ts.URL+hammer)
		}(i)
	}
	close(start)
	waitMetric(t, srv, "serve_singleflight_shared_total", n-1, 10*time.Second)
	hangUp()
	wg.Wait()
	if err := <-occupied; !errors.Is(err, context.Canceled) {
		t.Fatalf("occupying request: err = %v, want context.Canceled", err)
	}

	coalesced := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs from request 0", i)
		}
		if xcache[i] == "coalesced" {
			coalesced++
		}
	}
	// The occupier's computation is one of the counted computations.
	computes := metricValue(t, srv, "serve_compute_total") - 1
	shared := metricValue(t, srv, "serve_singleflight_shared_total")
	hits := metricValue(t, srv, "geostatd_cache_hits_total")
	if computes >= n {
		t.Fatalf("serve_compute_total = %v hammer computations, want < %d (coalescing)", computes, n)
	}
	if shared != float64(coalesced) {
		t.Fatalf("serve_singleflight_shared_total = %v, want %d (the X-Cache: coalesced responses)", shared, coalesced)
	}
	if computes+shared+hits < n {
		t.Fatalf("accounting hole: %v computed + %v shared + %v cache hits < %d requests",
			computes, shared, hits, n)
	}
}

// TestListenerHangUpFreesSlot hangs up on a running computation over
// TCP on a single-slot server. The server must count the hang-up as
// canceled, drop its in-flight gauge back to 0, and stop the abandoned
// computation so that a following distinct request gets the slot.
func TestListenerHangUpFreesSlot(t *testing.T) {
	srv, ts := listen(t, serve.Config{CacheBytes: 64 << 20, MaxInFlight: 1})
	client := ts.Client()

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	done := make(chan error, 1)
	go func() {
		_, _, _, err := fetch(ctx, client, ts.URL+slowKDV)
		done <- err
	}()
	waitMetric(t, srv, "serve_compute_total", 1, 10*time.Second)
	hangUp()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client: err = %v, want context.Canceled", err)
	}

	const canceled = `geostatd_errors_total{kind="canceled"}`
	waitMetric(t, srv, canceled, 1, 30*time.Second)
	if got := metricValue(t, srv, canceled); got != 1 {
		t.Fatalf("%s = %v, want 1", canceled, got)
	}
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, srv, "geostatd_requests_inflight") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("geostatd_requests_inflight = %v after the hang-up, want 0",
				metricValue(t, srv, "geostatd_requests_inflight"))
		}
		time.Sleep(time.Millisecond)
	}

	// With one slot, this request runs only once the abandoned
	// computation has released it.
	next, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	code, _, body, err := fetch(next, client, ts.URL+"/v1/kdv?dataset=big&bandwidth=5&width=16&height=16")
	if err != nil {
		t.Fatalf("follow-up request (slot not freed?): %v", err)
	}
	if code != http.StatusOK {
		t.Fatalf("follow-up request: status %d, want 200: %s", code, body)
	}
	// The slot is released after the cache fill, so had the abandoned
	// computation run to completion its raster would be cached by now.
	if got := metricValue(t, srv, "geostatd_cache_entries_count"); got != 1 {
		t.Fatalf("geostatd_cache_entries_count = %v, want 1: the abandoned computation was not stopped", got)
	}
}
