package load

import (
	"math"
	"testing"
)

func TestPromCountersSumsFamiliesAcrossLabelSets(t *testing.T) {
	src := []byte(`# HELP geostatd_requests_total requests
# TYPE geostatd_requests_total counter
geostatd_requests_total{tool="kdv"} 7
geostatd_requests_total{tool="moran"} 3
serve_compute_total 5
geostatd_request_seconds_bucket{tool="kdv",le="0.1"} 4
geostatd_request_seconds_bucket{tool="kdv",le="+Inf"} 7
geostatd_request_seconds_count{tool="kdv"} 7
weird_label{msg="a } b { c"} 2.5
`)
	got, err := promCounters(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"geostatd_requests_total":         10,
		"serve_compute_total":             5,
		"geostatd_request_seconds_bucket": 11,
		"geostatd_request_seconds_count":  7,
		"weird_label":                     2.5,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

func TestPromCountersRejectsMalformedLines(t *testing.T) {
	for _, src := range []string{"noval", "bad{ 1", "name notanumber"} {
		if _, err := promCounters([]byte(src)); err == nil {
			t.Errorf("promCounters(%q) succeeded, want error", src)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q, want float64
	}{
		{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}, {1.0, 100},
	}
	for _, tc := range cases {
		if got := quantile(sorted, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile(single, 0.99) = %v, want 7", got)
	}
}

func TestBuildArtifactAggregatesOutcomesAndDeltas(t *testing.T) {
	sc := &Scenario{Name: "agg", Seed: 1, Clients: 2, Requests: 5}
	samples := []sample{
		{tool: "kdv", outcome: "200", ms: 10},
		{tool: "kdv", outcome: "200", ms: 30},
		{tool: "kdv", outcome: "503", ms: 1},
		{tool: "kdv", outcome: "499", ms: 5},
		{tool: "kdv", outcome: "aborted", ms: 25},
		{tool: "upload", outcome: "200", ms: 2},
	}
	before := map[string]float64{"geostatd_cache_hits_total": 5, "geostatd_cache_misses_total": 5, "serve_compute_total": 100}
	after := map[string]float64{"geostatd_cache_hits_total": 8, "geostatd_cache_misses_total": 6, "serve_compute_total": 103}
	a := buildArtifact(sc, samples, 123, before, after)

	kdv := a.Tools["kdv"]
	if kdv.Count != 5 {
		t.Fatalf("kdv.Count = %d, want 5", kdv.Count)
	}
	if kdv.Rate503 != 0.2 || kdv.ErrorRate != 0.2 || kdv.Rate499 != 0.2 {
		t.Fatalf("rates = 503:%v err:%v 499:%v, want 0.2 each", kdv.Rate503, kdv.ErrorRate, kdv.Rate499)
	}
	if kdv.MaxMS != 30 {
		t.Fatalf("kdv.MaxMS = %v, want 30", kdv.MaxMS)
	}
	if a.Server.CacheHits != 3 || a.Server.CacheMisses != 1 || a.Server.ComputeTotal != 3 {
		t.Fatalf("server deltas = %+v, want hits 3, misses 1, compute 3", a.Server)
	}
	if math.Abs(a.Server.CacheHitRate-0.75) > 1e-12 {
		t.Fatalf("cache hit rate = %v, want 0.75", a.Server.CacheHitRate)
	}

	// Selector surface used by the gate.
	for sel, want := range map[string]float64{
		"kdv.count":             5,
		"kdv.rate_503":          0.2,
		"kdv.aborted":           1,
		"upload.p95_ms":         2,
		"server.cache_hit_rate": 0.75,
		"duration_ms":           123,
	} {
		got, ok := a.Metric(sel)
		if !ok || got != want {
			t.Errorf("Metric(%q) = %v,%v, want %v,true", sel, got, ok, want)
		}
	}
	for _, sel := range []string{"kdv.bogus", "nosuch.count", "server.bogus", "plain"} {
		if _, ok := a.Metric(sel); ok {
			t.Errorf("Metric(%q) resolved, want miss", sel)
		}
	}
}
