package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"geostat/internal/serve"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// silentBody is the body of a client that declared a length and sends
// nothing: at the first Read, when the server waits for its bytes, it
// records how many bytes were allocated since start.
type silentBody struct {
	start, held uint64
	read        bool
}

func (b *silentBody) Read([]byte) (int, error) {
	if !b.read {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		b.held, b.read = m.TotalAlloc-b.start, true
	}
	return 0, io.EOF
}

// TestUploadMemoryFollowsBytesReceived: a request that declares a body at
// the cap and sends no byte of it makes the server allocate a first buffer,
// not the declared size, while it waits. Otherwise a few idle connections
// could hold the cap each.
func TestUploadMemoryFollowsBytesReceived(t *testing.T) {
	const limit = 32 << 20
	srv := newServer(t, serve.Config{MaxBodyBytes: limit})
	body := &silentBody{}
	r := httptest.NewRequest(http.MethodPost, "/v1/datasets/pts", body)
	r.ContentLength = limit
	rr := httptest.NewRecorder()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	body.start = m.TotalAlloc
	srv.ServeHTTP(rr, r)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for a body shorter than declared: %s", rr.Code, rr.Body.String())
	}
	if !body.read {
		t.Fatal("the server never read the body")
	}
	if body.held > limit/8 {
		t.Errorf("allocated %d bytes before the first body byte of a %d-byte declaration, want at most %d",
			body.held, limit, limit/8)
	}
}

// TestUploadBodyLimits: only a body over MaxBodyBytes is 413 — refused
// before a byte is read when its Content-Length says so, and when a
// chunked body runs past the cap — while a body exactly at the cap is
// stored and a body shorter than its Content-Length is a 400, not a 413.
func TestUploadBodyLimits(t *testing.T) {
	body := []byte("x,y\n1,2\n3,4\n")
	limit := int64(len(body))
	for _, c := range []struct {
		name     string
		body     []byte
		declared int64 // Content-Length; -1 sends the body chunked
		want     int
		kind     string // the geostatd_errors_total kind it counts, if any
	}{
		{"declared-over-cap", append(body, '\n'), limit + 1, http.StatusRequestEntityTooLarge, "too_large"},
		{"at-cap", body, limit, http.StatusOK, ""},
		{"chunked-at-cap", body, -1, http.StatusOK, ""},
		{"chunked-over-cap", append(body, '\n'), -1, http.StatusRequestEntityTooLarge, "too_large"},
		{"truncated", body[:8], limit, http.StatusBadRequest, "bad_request"},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := newServer(t, serve.Config{MaxBodyBytes: limit})
			cr := &countingReader{r: bytes.NewReader(c.body)}
			r := httptest.NewRequest(http.MethodPost, "/v1/datasets/pts", cr)
			r.ContentLength = c.declared
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, r)
			if rr.Code != c.want {
				t.Fatalf("status %d, want %d: %s", rr.Code, c.want, rr.Body.String())
			}
			if c.declared > limit && cr.n != 0 {
				t.Errorf("read %d body bytes of a request declared over the cap", cr.n)
			}
			samples := scrape(t, srv)
			for _, kind := range []string{"too_large", "bad_request"} {
				want := "0"
				if kind == c.kind {
					want = "1"
				}
				got := samples[`geostatd_errors_total{kind="`+kind+`"}`]
				if got == "" {
					got = "0"
				}
				if got != want {
					t.Errorf("errors_total{kind=%q} = %s, want %s", kind, got, want)
				}
			}
		})
	}
}
