package serve

import (
	"encoding/json"
	"log"
	"net/http"

	"geostat/internal/dataset"
	"geostat/internal/obs"
)

// This file wires the internal/obs observability layer into the serving
// harness: a per-Server metric registry exported at GET /metrics in
// Prometheus text format — the server's one metrics surface — plus the
// span-tree surface at GET /debug/trace/last.
//
// The registry is per-Server rather than process-wide so test suites can
// spin up many httptest servers without metric collisions, and so a
// scrape observes exactly one server's traffic.

// registerObs installs the scrape-time metric callbacks that read state
// owned elsewhere: the result cache's monotonic hit / miss / eviction /
// refusal counters, its current occupancy and its budget.
func (s *Server) registerObs() {
	s.metrics.CounterFunc("geostatd_cache_hits_total",
		"result cache hits", func() int64 { return s.cache.Stats().Hits })
	s.metrics.CounterFunc("geostatd_cache_misses_total",
		"result cache misses", func() int64 { return s.cache.Stats().Misses })
	s.metrics.CounterFunc("geostatd_cache_evictions_total",
		"result cache evictions", func() int64 { return s.cache.Stats().Evictions })
	s.metrics.CounterFunc("geostatd_cache_uncacheable_total",
		"results not cached because one alone exceeds the cache's byte budget",
		func() int64 { return s.cache.Stats().Uncacheable })
	s.metrics.GaugeFunc("geostatd_cache_entries_count",
		"entries resident in the result cache", func() int64 { return s.cache.Stats().Entries })
	s.metrics.GaugeFunc("geostatd_cache_bytes",
		"bytes resident in the result cache", func() int64 { return s.cache.Stats().Bytes })
	s.metrics.GaugeFunc("geostatd_cache_capacity_bytes",
		"byte budget of the result cache (0: caching disabled)", func() int64 { return s.cache.Stats().Capacity })
	// Misses of the per-snapshot neighbourhood memo (dataset.Tree /
	// dataset.Adjacency). The count is the process's, like the datasets.
	const buildsHelp = "kd-trees and adjacency patterns built by dataset snapshots (neighbourhood memo misses)"
	s.metrics.CounterFunc("dataset_neighbourhood_builds_total", buildsHelp,
		func() int64 { t, _ := dataset.NeighbourhoodBuilds(); return t }, obs.L("kind", "tree"))
	s.metrics.CounterFunc("dataset_neighbourhood_builds_total", buildsHelp,
		func() int64 { _, a := dataset.NeighbourhoodBuilds(); return a }, obs.L("kind", "adjacency"))
}

// Metrics exposes the server's obs registry (cmd/geostatd, tests).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// handleMetrics serves the Prometheus text exposition of every metric in
// the server's registry. Output order is deterministic (sorted families,
// sorted series), so scrapes are diffable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handleTraceLast serves the span tree of the most recently completed
// tool request or dataset upload as JSON — the one-liner way to see where
// a request's time went without attaching a profiler.
func (s *Server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	t := s.lastTrace.Load()
	if t == nil {
		s.writeError(w, http.StatusNotFound, "no tool request or upload traced yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(t)
}

// finishTrace closes a request's root span, records its latency, publishes
// the tree to /debug/trace/last, and logs the rendered tree when the
// request exceeded the configured slow threshold.
func (s *Server) finishTrace(tool string, root *obs.Span) {
	root.End()
	dur := root.Duration()
	s.metrics.Histogram("geostatd_request_seconds",
		"end-to-end tool request latency", nil, obs.L("tool", tool)).Observe(dur)
	tree := root.Tree()
	s.lastTrace.Store(tree)
	if s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold {
		s.logf("slow request (%v >= %v):\n%s", dur, s.cfg.SlowThreshold, tree.Render())
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// errorKind buckets an HTTP error status for the geostatd_errors_total
// counter — labels must be low-cardinality, so the raw message never
// becomes a label value.
func errorKind(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case StatusClientClosedRequest:
		return "canceled"
	case http.StatusServiceUnavailable:
		return "overload"
	case http.StatusGatewayTimeout:
		return "timeout"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	default:
		return "internal"
	}
}
