// Package shardtest is the fault-injection worker harness for the shard
// coordinator's integration tests: a real serve.Server behind an
// httptest listener, with a scriptable fault layer in front that can
// delay requests, hang until the client gives up, return error statuses,
// drop the connection mid-body, or serve corrupt payloads — per tool,
// per tile, a bounded number of times.
package shardtest

import (
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"geostat/internal/serve"
)

// Rule scripts one fault. Zero-valued match fields match everything; the
// first matching rule applies. Exactly one fault field should be set.
type Rule struct {
	// Tool matches the request kind: "kdv", "kfunction", "digest",
	// "upload"; "" matches any.
	Tool string
	// Tile matches the tile= query parameter verbatim ("" matches any).
	Tile string
	// Times bounds how often the rule fires; 0 means unlimited.
	Times int

	// Delay sleeps before forwarding to the real server.
	Delay time.Duration
	// Hang blocks until the client abandons the request (context
	// cancellation closes the connection), then returns without a body.
	Hang bool
	// Status short-circuits with this HTTP status and a JSON error body.
	Status int
	// DropMidBody writes a partial payload (a format=f64 tile for "kdv",
	// JSON otherwise) and then severs the connection, exercising the
	// coordinator's truncated-read path.
	DropMidBody bool
	// Corrupt serves a well-formed HTTP 200 whose payload has the wrong
	// shape (a format=f64 tile for "kdv", JSON otherwise), exercising the
	// coordinator's payload validation.
	Corrupt bool
	// Body serves a well-formed HTTP 200 with exactly these bytes.
	Body []byte
}

// Worker is one fake geostatd: a real serving stack plus the fault layer.
type Worker struct {
	Server *serve.Server
	HTTP   *httptest.Server

	mu    sync.Mutex
	rules []*Rule
	hits  map[string]int // fault kind → count, for test assertions
}

// NewWorker boots a worker with its own serve.Server. The listener is
// closed by t.Cleanup.
func NewWorker(t testing.TB, cfg serve.Config) *Worker {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	w := &Worker{
		Server: serve.NewServer(cfg),
		hits:   make(map[string]int),
	}
	w.HTTP = httptest.NewServer(w)
	t.Cleanup(w.HTTP.Close)
	return w
}

// URL returns the worker's base URL.
func (w *Worker) URL() string { return w.HTTP.URL }

// Script appends a fault rule.
func (w *Worker) Script(r Rule) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rc := r
	w.rules = append(w.rules, &rc)
}

// Hits returns how many times faults of the given kind fired
// ("delay", "hang", "status", "drop", "corrupt", "body").
func (w *Worker) Hits(kind string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hits[kind]
}

// tool classifies a request the way Rule.Tool names it.
func tool(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/kdv"):
		return "kdv"
	case strings.HasPrefix(r.URL.Path, "/v1/kfunction"):
		return "kfunction"
	case strings.HasSuffix(r.URL.Path, "/digest"):
		return "digest"
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/datasets/"):
		return "upload"
	}
	return ""
}

// match pops the first applicable rule (decrementing its budget).
func (w *Worker) match(r *http.Request) *Rule {
	w.mu.Lock()
	defer w.mu.Unlock()
	rt := tool(r)
	tile := r.URL.Query().Get("tile")
	for i, rule := range w.rules {
		if rule.Tool != "" && rule.Tool != rt {
			continue
		}
		if rule.Tile != "" && rule.Tile != tile {
			continue
		}
		if rule.Times > 0 {
			rule.Times--
			if rule.Times == 0 {
				w.rules = append(w.rules[:i], w.rules[i+1:]...)
			}
		}
		w.hits[kind(rule)]++
		return rule
	}
	return nil
}

func kind(r *Rule) string {
	switch {
	case r.Hang:
		return "hang"
	case r.Status != 0:
		return "status"
	case r.DropMidBody:
		return "drop"
	case r.Corrupt:
		return "corrupt"
	case r.Body != nil:
		return "body"
	}
	return "delay"
}

// ServeHTTP applies the first matching fault, then forwards to the real
// server.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	rule := w.match(r)
	if rule == nil {
		w.Server.ServeHTTP(rw, r)
		return
	}
	switch {
	case rule.Hang:
		// The server sees the client leave only once the body is read.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	case rule.Status != 0:
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(rule.Status)
		_, _ = rw.Write([]byte(`{"error":"injected fault"}`))
		return
	case rule.DropMidBody:
		rw.WriteHeader(http.StatusOK)
		if tool(r) == "kdv" {
			_, _ = rw.Write(F64Body(`{"dataset":"x","width":4096,"height":4096}`, 2))
		} else {
			_, _ = rw.Write([]byte(`{"dataset":"x","s":[1.0,2.0`))
		}
		if f, ok := rw.(http.Flusher); ok {
			f.Flush()
		}
		// ErrAbortHandler severs the connection without a terminating
		// chunk — the client sees an unexpected EOF mid-body.
		panic(http.ErrAbortHandler)
	case rule.Corrupt:
		rw.WriteHeader(http.StatusOK)
		// Shape never matches any real tile or K-function plot: the
		// value count disagrees with the claimed dimensions.
		if tool(r) == "kdv" {
			_, _ = rw.Write(F64Body(`{"width":2,"height":2}`, 1))
		} else {
			_, _ = rw.Write([]byte(`{"s":[1],"k":[]}`))
		}
		return
	case rule.Body != nil:
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write(rule.Body)
		return
	}
	if rule.Delay > 0 {
		select {
		case <-time.After(rule.Delay):
		case <-r.Context().Done():
			return
		}
	}
	w.Server.ServeHTTP(rw, r)
}

// F64Body is a format=f64 tile body: header, "\n", then n values of 1.
func F64Body(header string, n int) []byte {
	b := append([]byte(header), '\n')
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	}
	return b
}
