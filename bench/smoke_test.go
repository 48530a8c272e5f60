package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke size, untraced and traced, the way
// the driver does: every op must verify and every metric of BENCHMARK.json
// must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs every workload")
	}
	ctx := context.Background()
	sz := sizesFor(true)
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		res, err := runUntraced(ctx, w.Name, 42, 300*time.Millisecond, sz)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkResult(t, w.Name, res, spec.EndToEnd, true)

		res, err = runTraced(ctx, w.Name, 42, 300*time.Millisecond, sz, provenance{Seed: 42}, dir)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkResult(t, w.Name+" traced", res, spec.PerLayer, false)
		if v := res.Metrics["bench.spans_total"].Value; v < float64(2*res.Attempted) {
			t.Errorf("%s: %g spans for %d ops, want a root and a child each", w.Name, v, res.Attempted)
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace_"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err = json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
			t.Errorf("%s: span file has %d spans (%v)", w.Name, len(file.Spans), err)
		}
	}
}

func checkResult(t *testing.T, what string, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", what, d.Name, v.Unit, d.Unit)
		case nonZero && !(v.Value > 0):
			t.Errorf("%s: end-to-end metric %s = %g, must be positive", what, d.Name, v.Value)
		case v.Value < 0:
			t.Errorf("%s: counter behind %s is missing from the program", what, d.Name)
		}
	}
}

// TestBenchmarkJSON keeps the committed BENCHMARK.json equal to spec.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err = os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the spec in spec.go (run go test -update)", path)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
