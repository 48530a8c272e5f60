package obs_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"geostat/internal/obs"
)

func TestCounterGauge(t *testing.T) {
	var c obs.Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // negative deltas are dropped: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g obs.Gauge
	g.Add(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge after Set = %d, want 42", got)
	}
}

func TestHistogramObserveCountSum(t *testing.T) {
	h := obs.NewHistogram([]float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond) // first bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(50 * time.Millisecond) // second bucket
	}
	h.Observe(10 * time.Second) // +Inf bucket

	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	wantSum := 90*0.005 + 9*0.05 + 10.0
	if got := h.Sum(); got < wantSum-1e-9 || got > wantSum+1e-9 {
		t.Fatalf("sum = %g, want %g", got, wantSum)
	}
}

// TestHistogramEmpty: a histogram that has seen nothing reports zero
// count and sum, and exports every bucket, +Inf included, at zero.
func TestHistogramEmpty(t *testing.T) {
	if h := obs.NewHistogram(nil); h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram: count = %d, sum = %g, want 0, 0", h.Count(), h.Sum())
	}
	r := obs.NewRegistry()
	r.Histogram("geostatd_request_seconds", "latency", []float64{0.1, 1}, obs.L("tool", "kdv"))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP geostatd_request_seconds latency
# TYPE geostatd_request_seconds histogram
geostatd_request_seconds_bucket{tool="kdv",le="0.1"} 0
geostatd_request_seconds_bucket{tool="kdv",le="1"} 0
geostatd_request_seconds_bucket{tool="kdv",le="+Inf"} 0
geostatd_request_seconds_sum{tool="kdv"} 0
geostatd_request_seconds_count{tool="kdv"} 0
`
	if got := b.String(); got != want {
		t.Errorf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("geostatd_requests_total", "requests", obs.L("tool", "kdv"))
	b := r.Counter("geostatd_requests_total", "requests", obs.L("tool", "kdv"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("geostatd_requests_total", "requests", obs.L("tool", "idw"))
	if a == other {
		t.Fatal("distinct labels share a counter")
	}
}

func TestRegistryPrometheusText(t *testing.T) {
	r := obs.NewRegistry()
	// A small map ranges as a rotation of its insertion order. No rotation
	// of the order the families are registered in is sorted, nor of the
	// three requests_total series, registered in decreasing order: output
	// that skips either sort fails here on every run.
	r.Counter("geostatd_requests_total", "requests per tool", obs.L("tool", "moran")).Add(2)
	r.Counter("geostatd_requests_total", "requests per tool", obs.L("tool", "kdv")).Add(3)
	r.Counter("geostatd_requests_total", "requests per tool", obs.L("tool", "idw")).Inc()
	r.Gauge("geostatd_requests_inflight", "executing now").Set(2)
	r.CounterFunc("geostatd_cache_hits_total", "cache hits", func() int64 { return 7 })
	h := r.Histogram("geostatd_request_seconds", "latency", []float64{0.1, 1}, obs.L("tool", "kdv"))
	h.Observe(50 * time.Millisecond)
	h.Observe(500 * time.Millisecond)
	h.Observe(5 * time.Second)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP geostatd_cache_hits_total cache hits
# TYPE geostatd_cache_hits_total counter
geostatd_cache_hits_total 7
# HELP geostatd_request_seconds latency
# TYPE geostatd_request_seconds histogram
geostatd_request_seconds_bucket{tool="kdv",le="0.1"} 1
geostatd_request_seconds_bucket{tool="kdv",le="1"} 2
geostatd_request_seconds_bucket{tool="kdv",le="+Inf"} 3
geostatd_request_seconds_sum{tool="kdv"} 5.55
geostatd_request_seconds_count{tool="kdv"} 3
# HELP geostatd_requests_inflight executing now
# TYPE geostatd_requests_inflight gauge
geostatd_requests_inflight 2
# HELP geostatd_requests_total requests per tool
# TYPE geostatd_requests_total counter
geostatd_requests_total{tool="idw"} 1
geostatd_requests_total{tool="kdv"} 3
geostatd_requests_total{tool="moran"} 2
`
	if got := b.String(); got != want {
		t.Errorf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := obs.NewRegistry()
	for _, tc := range []struct {
		kind, name string
	}{
		{"counter", "geostatd_requests"},     // missing _total
		{"counter", "Geostatd_Errors_total"}, // upper case
		{"gauge", "geostatd_inflight_total"}, // counter unit on a gauge
		{"histogram", "geostatd_request_total"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s %q: registration did not panic", tc.kind, tc.name)
				}
			}()
			switch tc.kind {
			case "counter":
				r.Counter(tc.name, "")
			case "gauge":
				r.Gauge(tc.name, "")
			case "histogram":
				r.Histogram(tc.name, "", nil)
			}
		}()
	}
}

// TestRegistryConcurrentFirstTouch is the regression test for the
// get-or-create race: creation used to happen after the registry lock was
// released, so two goroutines first-touching one series could each create
// (and one overwrite) the metric, losing increments. Run under -race.
func TestRegistryConcurrentFirstTouch(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		r := obs.NewRegistry()
		const goroutines = 8
		var wg sync.WaitGroup
		counters := make([]*obs.Counter, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := r.Counter("geostatd_requests_total", "requests", obs.L("tool", "kdv"))
				c.Inc()
				counters[g] = c
			}(g)
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if counters[g] != counters[0] {
				t.Fatal("concurrent first touch created distinct counters")
			}
		}
		if got := counters[0].Value(); got != goroutines {
			t.Fatalf("counter = %d, want %d (lost increments)", got, goroutines)
		}
	}
}

func TestRegistryRejectsHelpMismatch(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("geostatd_requests_total", "requests")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different help did not panic")
		}
	}()
	r.Counter("geostatd_requests_total", "something else")
}

func TestRegistryHistogramFamilyBuckets(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Histogram("geostatd_request_seconds", "latency", []float64{0.1, 1}, obs.L("tool", "kdv"))
	// nil buckets on a later series reuse the family's bounds.
	b := r.Histogram("geostatd_request_seconds", "latency", nil, obs.L("tool", "idw"))
	a.Observe(500 * time.Millisecond)
	b.Observe(500 * time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`geostatd_request_seconds_bucket{tool="kdv",le="1"} 1`,
		`geostatd_request_seconds_bucket{tool="idw",le="1"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
	// Matching non-nil bounds are accepted; differing bounds panic.
	r.Histogram("geostatd_request_seconds", "latency", []float64{0.1, 1}, obs.L("tool", "moran"))
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different buckets did not panic")
		}
	}()
	r.Histogram("geostatd_request_seconds", "latency", []float64{0.2, 2}, obs.L("tool", "idw"))
}

func TestWritePrometheusEscapesHelp(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("geostatd_requests_total", "line one\nwith \\ backslash")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP geostatd_requests_total line one\nwith \\ backslash` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("HELP line not escaped:\n%s", b.String())
	}
}

func TestRegistryRejectsKindMismatch(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("geostatd_cache_bytes", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a gauge as a histogram did not panic")
		}
	}()
	r.Histogram("geostatd_cache_bytes", "", nil)
}

func TestValidNames(t *testing.T) {
	if err := obs.ValidMetricName("counter", "geostatd_requests_total"); err != nil {
		t.Errorf("valid counter name rejected: %v", err)
	}
	if err := obs.ValidMetricName("histogram", "geostatd_request_seconds"); err != nil {
		t.Errorf("valid histogram name rejected: %v", err)
	}
	if err := obs.ValidMetricName("counter", "requests"); err == nil {
		t.Error("single-segment name accepted")
	}
	if err := obs.ValidMetricName("nosuchkind", "a_total"); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, good := range []string{"kdv", "kdv.compute", "kde.index_build", "parallel.for"} {
		if err := obs.ValidSpanName(good); err != nil {
			t.Errorf("valid span name %q rejected: %v", good, err)
		}
	}
	for _, bad := range []string{"", "KDV.compute", "kdv.", "a.b.c.d", "kdv compute"} {
		if err := obs.ValidSpanName(bad); err == nil {
			t.Errorf("invalid span name %q accepted", bad)
		}
	}
}

func TestTraceTree(t *testing.T) {
	ctx, root := obs.NewTrace(context.Background(), "request")
	root.SetAttr("tool", "kdv")

	cctx, parse := obs.Trace(ctx, "kdv.parse")
	if parse == nil {
		t.Fatal("child span under an active root is nil")
	}
	if obs.ActiveSpan(cctx) != parse {
		t.Fatal("child context does not carry the child span")
	}
	parse.End()

	cctx, compute := obs.Trace(ctx, "kdv.compute")
	_, inner := obs.Trace(cctx, "parallel.for")
	inner.SetAttrInt("n", 128)
	inner.End()
	compute.End()
	root.End()

	tree := root.Tree()
	got := tree.StageNames()
	want := []string{"request", "kdv.parse", "kdv.compute", "parallel.for"}
	if len(got) != len(want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
	r := tree.Render()
	for _, frag := range []string{"request", "kdv.parse", "tool=kdv", "n=128"} {
		if !strings.Contains(r, frag) {
			t.Errorf("rendered tree missing %q:\n%s", frag, r)
		}
	}
}

func TestTraceNoopWithoutRoot(t *testing.T) {
	ctx, sp := obs.Trace(context.Background(), "kdv.compute")
	if sp != nil {
		t.Fatal("span created without an active trace")
	}
	if obs.ActiveSpan(ctx) != nil {
		t.Fatal("context gained an active span from a no-op Trace")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.End()
	if sp.Tree() != nil {
		t.Fatal("nil span produced a tree")
	}
	if sp.Duration() != 0 {
		t.Fatal("nil span has a duration")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	_, root := obs.NewTrace(context.Background(), "request")
	root.End()
	d := root.Duration()
	time.Sleep(2 * time.Millisecond)
	root.End()
	if root.Duration() != d {
		t.Fatal("second End changed the recorded duration")
	}
}
