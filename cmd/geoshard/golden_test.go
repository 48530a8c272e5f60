package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"geostat"
	"geostat/internal/serve"
	"geostat/internal/shard/shardtest"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/geoshard -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// elapsedRE scrubs the wall-clock durations in the stderr summary — the
// only nondeterministic token in the CLI's output.
var elapsedRE = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)\b`)

func scrubElapsed(s string) string { return elapsedRE.ReplaceAllString(s, "<elapsed>") }

func writeEvents(t *testing.T, n int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	d := geostat.GaussianClusters(rng, n, geostat.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		[]geostat.GaussianCluster{{Center: geostat.Point{X: 40, Y: 40}, Sigma: 6, Weight: 1}}, 0.2)
	path := filepath.Join(t.TempDir(), "events.csv")
	if err := geostat.WriteCSVFile(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func bootWorkers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = shardtest.NewWorker(t, serve.Config{Workers: 2}).URL()
	}
	return urls
}

func testOptions(t *testing.T, workers []string, in string) options {
	t.Helper()
	return options{
		workers:     workers,
		in:          in,
		name:        "golden",
		out:         filepath.Join(t.TempDir(), "out.json"),
		replication: 2,
		retries:     2,
		backoff:     time.Millisecond,
		timeout:     30 * time.Second,
		kernelArg:   "quartic",
		bandwidth:   8,
		width:       24,
		height:      18,
		bbox:        "0,0,100,100",
		tile:        "3x2",
		smax:        25,
		steps:       10,
		sims:        9,
		seed:        1,
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func sha256File(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenKDV locks down the merged heatmap JSON (by digest — the
// payload is 432 floats) and the stderr summary for a fixed dataset and
// seed, across worker counts: one golden pair serves every fleet size,
// which is the sharded-determinism claim at the CLI level.
func TestGoldenKDV(t *testing.T) {
	in := writeEvents(t, 400)
	for _, nw := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", nw), func(t *testing.T) {
			opt := testOptions(t, bootWorkers(t, nw), in)
			opt.tool = "kdv"
			var errb strings.Builder
			if err := run(opt, &errb); err != nil {
				t.Fatal(err)
			}
			stderr := scrubElapsed(errb.String())
			// The worker count is the one legitimate per-subtest difference.
			stderr = strings.ReplaceAll(stderr,
				fmt.Sprintf("over %d workers", nw), "over <n> workers")
			compareGolden(t, filepath.Join("testdata", "golden", "kdv.stderr"), stderr)
			compareGolden(t, filepath.Join("testdata", "golden", "kdv.json.sha256"), sha256File(t, opt.out)+"\n")
		})
	}
}

// TestGoldenKFunction locks down the merged K-function plot JSON in full
// (10 bands), including the Monte-Carlo envelopes.
func TestGoldenKFunction(t *testing.T) {
	in := writeEvents(t, 250)
	for _, nw := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", nw), func(t *testing.T) {
			opt := testOptions(t, bootWorkers(t, nw), in)
			opt.tool = "kfunction"
			var errb strings.Builder
			if err := run(opt, &errb); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(opt.out)
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "golden", "kfunction.json"), string(b))
		})
	}
}

// TestGoldenKDVWithFaults proves the golden digest survives injected
// faults: retries and failovers must not change a single output byte.
func TestGoldenKDVWithFaults(t *testing.T) {
	in := writeEvents(t, 400)
	w0 := shardtest.NewWorker(t, serve.Config{Workers: 2})
	w1 := shardtest.NewWorker(t, serve.Config{Workers: 2})
	w0.Script(shardtest.Rule{Tool: "kdv", Times: 1, Status: 503})
	w1.Script(shardtest.Rule{Tool: "kdv", Times: 1, Corrupt: true})

	opt := testOptions(t, []string{w0.URL(), w1.URL()}, in)
	opt.tool = "kdv"
	var errb strings.Builder
	if err := run(opt, &errb); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden", "kdv.json.sha256"), sha256File(t, opt.out)+"\n")
	if w0.Hits("status")+w1.Hits("corrupt") == 0 {
		t.Fatal("no fault actually fired")
	}
}

func TestRunErrors(t *testing.T) {
	in := writeEvents(t, 50)
	workers := bootWorkers(t, 1)

	base := testOptions(t, workers, in)
	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"missing input", func(o *options) { o.in = filepath.Join(t.TempDir(), "nope.csv") }},
		{"bad tool", func(o *options) { o.tool = "moran" }},
		{"bad tile", func(o *options) { o.tool = "kdv"; o.tile = "axb" }},
		{"bad bbox", func(o *options) { o.tool = "kdv"; o.bbox = "garbage" }},
		{"gaussian kernel", func(o *options) { o.tool = "kdv"; o.kernelArg = "gaussian" }},
		{"bad kernel", func(o *options) { o.tool = "kdv"; o.kernelArg = "bogus" }},
		{"zero steps", func(o *options) { o.tool = "kfunction"; o.steps = 0 }},
		{"no workers", func(o *options) { o.workers = nil }},
	}
	for _, tc := range cases {
		opt := base
		tc.mut(&opt)
		if err := run(opt, &strings.Builder{}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" http://a:1, ,http://b:2,")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitList: %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty list should be nil")
	}
}
