package shard

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// TestGetAllocatesOneBody: get reads a body of declared length into one
// buffer of about its size, where a read that grows by doubling allocates
// about twice the body; a chunked body (no declared length) still arrives
// whole.
func TestGetAllocatesOneBody(t *testing.T) {
	body := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 1<<17) // 1 MiB
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/chunked" {
			_, _ = w.Write(body[:1000])
			w.(http.Flusher).Flush()
			_, _ = w.Write(body[1000:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	c := &Coordinator{client: srv.Client()}
	ctx := context.Background()
	for _, path := range []string{"/chunked", "/sized"} { // the first call also opens the connection
		got, err := c.get(ctx, srv.URL, path, nil)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: %d bytes, err %v; want the %d-byte body", path, len(got), err, len(body))
		}
	}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := c.get(ctx, srv.URL, "/sized", nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 1.1 * float64(len(body)); perCall > limit {
		t.Errorf("get allocated %.0f bytes per %d-byte body, want at most %.0f", perCall, len(body), limit)
	}
}

// TestGetPresizeIsCapped: a worker that declares a long body and then drops
// the connection costs get an error, not a buffer of the declared length.
func TestGetPresizeIsCapped(t *testing.T) {
	const declared = 16 * maxPresize
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		_, _ = w.Write([]byte("truncated"))
	}))
	defer srv.Close()
	c := &Coordinator{client: srv.Client()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.get(context.Background(), srv.URL, "/tile", nil); err == nil {
		t.Fatal("a body shorter than its Content-Length was accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*maxPresize {
		t.Errorf("get allocated %d bytes for a dropped body declared at %d, want at most %d", got, declared, 2*maxPresize)
	}
}
