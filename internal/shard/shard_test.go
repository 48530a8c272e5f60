package shard_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kde"
	"geostat/internal/kernel"
	"geostat/internal/kfunc"
	"geostat/internal/parallel"
	"geostat/internal/serve"
	"geostat/internal/shard"
	"geostat/internal/shard/shardtest"
)

var box = geom.BBox{MinX: 0, MinY: 0, MaxX: 100, MaxY: 80}

func testData(seed int64, n int) *dataset.Dataset {
	r := rand.New(rand.NewSource(seed))
	return dataset.GaussianClusters(r, n, box, []dataset.Cluster{
		{Center: geom.Point{X: 30, Y: 40}, Sigma: 8, Weight: 2},
		{Center: geom.Point{X: 75, Y: 20}, Sigma: 5, Weight: 1},
	}, 0.2)
}

// cluster boots n fault-injectable workers and a coordinator over them.
func cluster(t *testing.T, n int, cfg shard.Config) (*shard.Coordinator, []*shardtest.Worker, *http.Client) {
	t.Helper()
	workers := make([]*shardtest.Worker, n)
	for i := range workers {
		workers[i] = shardtest.NewWorker(t, serve.Config{Workers: 2})
		cfg.Workers = append(cfg.Workers, workers[i].URL())
	}
	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)
	cfg.Client = client
	c, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, workers, client
}

func kdvReq(k kernel.Kernel, tx, ty int) shard.KDVRequest {
	return shard.KDVRequest{
		Kernel: k,
		Grid:   geom.NewPixelGrid(box, 16, 12),
		TilesX: tx, TilesY: ty,
	}
}

// singleNode computes the reference raster the sharded run must reproduce.
func singleNode(t *testing.T, d *dataset.Dataset, req shard.KDVRequest) []float64 {
	t.Helper()
	g, err := kde.Evaluate(d.Columns(), kde.Naive, kde.Options{
		Kernel: req.Kernel, Grid: req.Grid, Normalize: req.Normalize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Values
}

func assertBitIdentical(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: pixel %d: %x != %x (%g vs %g)",
				label, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

func TestShardedKDVBitIdenticalAcrossWorkers(t *testing.T) {
	d := testData(5, 300)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 3, 2)
	want := singleNode(t, d, req)

	c, _, _ := cluster(t, 2, shard.Config{Replication: 2})
	got, err := c.KDV(context.Background(), d, "ev", req)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got.Values, "sharded 3x2")

	// Normalized surfaces must match too (post-merge scaling).
	nreq := req
	nreq.Normalize = true
	want = singleNode(t, d, nreq)
	gotN, err := c.KDV(context.Background(), d, "ev", nreq)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, gotN.Values, "sharded normalized")
}

// TestShardedKFunctionBitIdentical: the whole payload, regimes included,
// is the single-node plot's, and it names the logical dataset.
func TestShardedKFunctionBitIdentical(t *testing.T) {
	d := testData(7, 200)
	thresholds := []float64{5, 10, 15, 20, 25, 30}
	req := shard.KFuncRequest{Thresholds: thresholds, Sims: 5, Seed: 11}

	// The single-node reference is exactly what one geostatd computes.
	plot, err := kfunc.MakePlot(d.Points(), kfunc.PlotOptions{
		Thresholds: thresholds, Simulations: 5,
	}, parallel.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}

	c, _, _ := cluster(t, 2, shard.Config{Replication: 2})
	got, err := c.KFunction(context.Background(), d, "ev", req)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, plot.S, got.S, "s")
	assertBitIdentical(t, plot.K, got.K, "k")
	assertBitIdentical(t, plot.Lo, got.Lo, "lo")
	assertBitIdentical(t, plot.Hi, got.Hi, "hi")
	if got.Dataset != "ev" || got.Sims != plot.Sim {
		t.Fatalf("dataset %q, sims %d, want \"ev\", %d", got.Dataset, got.Sims, plot.Sim)
	}
	if len(got.Regimes) != len(thresholds) {
		t.Fatalf("%d regimes, want %d", len(got.Regimes), len(thresholds))
	}
	for i, r := range got.Regimes {
		if want := plot.RegimeAt(i).String(); r != want {
			t.Fatalf("regime %d = %q, want %q", i, r, want)
		}
	}
}

// TestShardedKFunctionIsOneRequest: a plot of many bands is one
// /v1/kfunction request to the dataset's owner, and when that owner
// answers 503 the one request fails over to the replica without changing
// a bit of the plot.
func TestShardedKFunctionIsOneRequest(t *testing.T) {
	d := testData(7, 200)
	thresholds := []float64{4, 8, 12, 16, 20, 24, 28, 32}
	req := shard.KFuncRequest{Thresholds: thresholds, Sims: 5, Seed: 11}
	plot, err := kfunc.MakePlot(d.Points(), kfunc.PlotOptions{
		Thresholds: thresholds, Simulations: 5,
	}, parallel.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	c, workers, client := cluster(t, 2, shard.Config{
		Replication: 2, Retries: 1, Backoff: time.Millisecond,
	})
	served := func() []int64 {
		n := make([]int64, len(workers))
		for i, w := range workers {
			n[i] = workerCounter(t, client, w.URL(), `geostatd_requests_total{tool="kfunction"}`)
		}
		return n
	}
	check := func(label string) {
		t.Helper()
		got, err := c.KFunction(context.Background(), d, "ev", req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertBitIdentical(t, plot.S, got.S, label+" s")
		assertBitIdentical(t, plot.K, got.K, label+" k")
		assertBitIdentical(t, plot.Lo, got.Lo, label+" lo")
		assertBitIdentical(t, plot.Hi, got.Hi, label+" hi")
		if got.Dataset != "ev" || got.Sims != 5 || len(got.Regimes) != len(thresholds) {
			t.Fatalf("%s: dataset %q, sims %d, %d regimes", label, got.Dataset, got.Sims, len(got.Regimes))
		}
	}

	check("healthy")
	first := served()
	if first[0]+first[1] != 1 {
		t.Fatalf("one plot of %d bands made %d+%d kfunction requests, want 1", len(thresholds), first[0], first[1])
	}
	owner, replica := 0, 1
	if first[1] == 1 {
		owner, replica = 1, 0
	}

	// The owner refuses once: the request must move to the replica.
	workers[owner].Script(shardtest.Rule{Tool: "kfunction", Times: 1, Status: http.StatusServiceUnavailable})
	check("after a 503")
	second := served()
	if workers[owner].Hits("status") != 1 || second[owner] != first[owner] || second[replica] != first[replica]+1 {
		t.Fatalf("after a 503 on the owner: %d faults, served %v -> %v, want the replica to serve one request",
			workers[owner].Hits("status"), first, second)
	}
	if f := counterValue(t, c, "shard_failovers_total"); f != 1 {
		t.Fatalf("shard_failovers_total = %d, want 1", f)
	}
}

func TestRetryOn503(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 2, 2)
	want := singleNode(t, d, req)

	c, workers, _ := cluster(t, 2, shard.Config{
		Replication: 2, Retries: 3, Backoff: time.Millisecond,
	})
	for _, w := range workers {
		w.Script(shardtest.Rule{Tool: "kdv", Times: 1, Status: http.StatusServiceUnavailable})
	}
	got, err := c.KDV(context.Background(), d, "ev", req)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got.Values, "after 503 retries")
	if workers[0].Hits("status")+workers[1].Hits("status") == 0 {
		t.Fatal("no injected 503 actually fired")
	}
}

func TestRetryOnDroppedConnectionAndCorruptPayload(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Epanechnikov, 11), 2, 2)
	want := singleNode(t, d, req)

	c, workers, _ := cluster(t, 2, shard.Config{
		Replication: 2, Retries: 3, Backoff: time.Millisecond,
	})
	workers[0].Script(shardtest.Rule{Tool: "kdv", Times: 1, DropMidBody: true})
	workers[1].Script(shardtest.Rule{Tool: "kdv", Times: 1, Corrupt: true})
	got, err := c.KDV(context.Background(), d, "ev", req)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, got.Values, "after drop+corrupt retries")
	if workers[0].Hits("drop") == 0 && workers[1].Hits("corrupt") == 0 {
		t.Fatal("no fault actually fired")
	}
}

// TestCorruptF64TileIsRetried: a format=f64 tile body of the wrong shape
// fails its attempt as a corrupt tile payload, and the retry computes the
// tile exactly.
func TestCorruptF64TileIsRetried(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 1, 1) // one tile, the whole grid
	want := singleNode(t, d, req)
	nx, ny := req.Grid.NX, req.Grid.NY
	head := `{"width":` + strconv.Itoa(nx) + `,"height":` + strconv.Itoa(ny) + `}`
	whole := shardtest.F64Body(head, nx*ny)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"no header line", whole[len(head)+1:]},
		{"partial value", append(shardtest.F64Body(head, nx*ny), 0, 0, 0)},
		{"W·H mismatch", shardtest.F64Body(head, nx*ny+1)},
		{"truncated", whole[:len(whole)-8*nx]},
		{"other window", shardtest.F64Body(`{"width":`+strconv.Itoa(ny)+`,"height":`+strconv.Itoa(nx)+`}`, nx*ny)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, retries := range []int{0, 1} {
				c, workers, _ := cluster(t, 1, shard.Config{Replication: 1, Retries: retries, Backoff: time.Millisecond})
				workers[0].Script(shardtest.Rule{Tool: "kdv", Times: 1, Body: tc.body})
				got, err := c.KDV(context.Background(), d, "ev", req)
				if workers[0].Hits("body") != 1 {
					t.Fatalf("retries=%d: the fault fired %d times, want 1", retries, workers[0].Hits("body"))
				}
				if retries == 0 {
					if err == nil || !strings.Contains(err.Error(), "corrupt tile payload") {
						t.Fatalf("no retry: got %v, want a corrupt tile payload error", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("one retry: %v", err)
				}
				assertBitIdentical(t, want, got.Values, "after the retry")
			}
		})
	}
}

// TestWorkerF64TileDeclaresLength: a worker's format=f64 tile goes out
// with a Content-Length of its header line + 1 + 8·W·H bytes, the length
// the coordinator sizes its read buffer from.
func TestWorkerF64TileDeclaresLength(t *testing.T) {
	w := shardtest.NewWorker(t, serve.Config{Workers: 2})
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, testData(5, 200)); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	t.Cleanup(client.CloseIdleConnections)
	up, err := client.Post(w.URL()+"/v1/datasets/ev", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	up.Body.Close()
	if up.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", up.StatusCode)
	}
	// Bodies under net/http's 2 KiB chunking threshold get a length
	// anyway; this tile is well over it.
	const nx, ny = 64, 48
	resp, err := client.Get(w.URL() + "/v1/kdv?dataset=ev&bandwidth=9&width=64&height=48&format=f64")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	head, _, ok := bytes.Cut(body, []byte("\n"))
	if resp.StatusCode != http.StatusOK || !ok {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
	if want := int64(len(head) + 1 + 8*nx*ny); resp.ContentLength != want || int64(len(body)) != want {
		t.Errorf("Content-Length %d, body %d bytes; want %d (header line %d + 1 + 8·%d·%d)",
			resp.ContentLength, len(body), want, len(head), nx, ny)
	}
}

func TestDeadWorkerDegradesNotWedges(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 3, 3)
	want := singleNode(t, d, req)

	c, workers, _ := cluster(t, 2, shard.Config{
		Replication: 2, Retries: 2, Backoff: time.Millisecond,
		Timeout: 5 * time.Second,
	})
	// Kill one worker outright: every tile it owned must fail over to the
	// surviving replica and the run must still complete exactly.
	workers[0].HTTP.Close()
	start := time.Now()
	got, err := c.KDV(context.Background(), d, "ev", req)
	if err != nil {
		t.Fatalf("run did not survive a dead worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run wedged for %v", elapsed)
	}
	assertBitIdentical(t, want, got.Values, "with one dead worker")
}

func TestFatalErrorCancelsInFlightTiles(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 2, 2)

	c, workers, client := cluster(t, 1, shard.Config{
		Replication: 1, Retries: 0, Concurrency: 4,
		Timeout: 30 * time.Second,
	})
	// First tile request dies with a non-retryable 400; the rest hang
	// until their contexts cancel. If leader cancel fails to propagate,
	// this test times out.
	workers[0].Script(shardtest.Rule{Tool: "kdv", Times: 1, Status: http.StatusBadRequest})
	workers[0].Script(shardtest.Rule{Tool: "kdv", Hang: true})

	baseline := runtime.NumGoroutine()
	start := time.Now()
	_, err := c.KDV(context.Background(), d, "ev", req)
	if err == nil {
		t.Fatal("injected 400 did not fail the run")
	}
	if !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("error does not carry the worker message: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("leader cancel took %v", elapsed)
	}
	client.CloseIdleConnections()
	settleGoroutines(t, baseline)
}

func TestCallerCancelPropagates(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 2, 2)

	c, workers, client := cluster(t, 1, shard.Config{
		Replication: 1, Retries: 0, Concurrency: 4,
		Timeout: 30 * time.Second,
	})
	workers[0].Script(shardtest.Rule{Tool: "kdv", Hang: true})

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := c.KDV(ctx, d, "ev", req)
	if err == nil {
		t.Fatal("cancelled run returned success")
	}
	client.CloseIdleConnections()
	settleGoroutines(t, baseline)
}

// TestPreCancelledRunSendsNothing: a run whose ctx is already cancelled
// returns context.Canceled and sends no request. TestCallerCancelPropagates
// does not cover this: its tiles are in flight when the ctx fires, so the
// error comes back through the jobs. Here dispatch must skip every tile,
// and KDV must not merge the parts it never fetched.
func TestPreCancelledRunSendsNothing(t *testing.T) {
	d := testData(5, 200)
	c, workers, _ := cluster(t, 1, shard.Config{Replication: 1, Concurrency: 4})
	workers[0].Script(shardtest.Rule{}) // a no-op rule: every request counts as a "delay" hit
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g, err := c.KDV(ctx, d, "ev", kdvReq(kernel.MustNew(kernel.Quartic, 9), 2, 2))
	if g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("KDV = %v, %v; want nil, context.Canceled", g, err)
	}
	res, err := c.KFunction(ctx, d, "ev", shard.KFuncRequest{Thresholds: []float64{5, 10}, Sims: 3, Seed: 1})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("KFunction = %v, %v; want nil, context.Canceled", res, err)
	}
	if n := workers[0].Hits("delay"); n != 0 {
		t.Fatalf("cancelled runs sent %d worker requests", n)
	}
}

// cancelWhen cancels once cond holds, so the caller gives up at the stage
// cond observes.
func cancelWhen(ctx context.Context, cancel context.CancelFunc, cond func() bool) {
	go func() {
		for !cond() && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
}

// TestCallerCancelReleasesEachStage: the caller's cancel reaches the
// request a worker is holding at every stage of a run: the digest check,
// the upload, the tile and the K-function request. The attempt timeout is
// long, so a stage that drops the caller's ctx ends in that timeout's
// DeadlineExceeded instead of context.Canceled.
func TestCallerCancelReleasesEachStage(t *testing.T) {
	d := testData(5, 200)
	for _, tool := range []string{"digest", "upload", "kdv", "kfunction"} {
		t.Run(tool, func(t *testing.T) {
			c, workers, _ := cluster(t, 1, shard.Config{
				Replication: 1, Retries: 0, Timeout: 20 * time.Second,
			})
			workers[0].Script(shardtest.Rule{Tool: tool, Hang: true})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelWhen(ctx, cancel, func() bool { return workers[0].Hits("hang") > 0 })
			var err error
			if tool == "kfunction" {
				_, err = c.KFunction(ctx, d, "ev", shard.KFuncRequest{Thresholds: []float64{5, 10}, Sims: 3, Seed: 1})
			} else {
				_, err = c.KDV(ctx, d, "ev", kdvReq(kernel.MustNew(kernel.Quartic, 9), 2, 2))
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("run cancelled while the worker held its %s request: %v, want context.Canceled", tool, err)
			}
		})
	}
}

// TestCancelDuringBackoff: a cancel while a tile waits out its retry
// backoff ends the run at once with context.Canceled, not the failed
// attempt's error. The backoff is an hour, so a backoff that ignored the
// cancel hangs until the test binary's timeout names this test.
func TestCancelDuringBackoff(t *testing.T) {
	d := testData(5, 200)
	c, workers, _ := cluster(t, 1, shard.Config{
		Replication: 1, Retries: 1, Backoff: time.Hour, Timeout: 20 * time.Second,
	})
	workers[0].Script(shardtest.Rule{Tool: "kdv", Status: http.StatusServiceUnavailable})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The retry counter moves after the 503 reached the coordinator, just
	// before the backoff starts.
	retries := c.Metrics().Counter("shard_retries_total", "tile attempts beyond the first")
	cancelWhen(ctx, cancel, func() bool { return retries.Value() > 0 })
	_, err := c.KDV(ctx, d, "ev", kdvReq(kernel.MustNew(kernel.Quartic, 9), 1, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel during backoff: %v, want context.Canceled", err)
	}
}

func TestPlacementCacheSkipsReupload(t *testing.T) {
	d := testData(5, 200)
	req := kdvReq(kernel.MustNew(kernel.Quartic, 9), 2, 2)

	c, _, _ := cluster(t, 2, shard.Config{Replication: 1})
	if _, err := c.KDV(context.Background(), d, "ev", req); err != nil {
		t.Fatal(err)
	}
	uploads := counterValue(t, c, "shard_uploads_total")
	if uploads == 0 {
		t.Fatal("first run uploaded nothing")
	}
	if _, err := c.KDV(context.Background(), d, "ev", req); err != nil {
		t.Fatal(err)
	}
	if again := counterValue(t, c, "shard_uploads_total"); again != uploads {
		t.Fatalf("second run re-uploaded: %d -> %d", uploads, again)
	}
}

// TestSameNameNewSubsetsNeverReuseStaleTiles is the regression test for
// tile datasets named after the WHOLE dataset's digest: a second request
// under the same logical name with another bandwidth (halo) or tiling then
// hit the coordinator's worker|name placement cache and silently evaluated
// against the first request's halo subsets. Names now derive from each
// tile subset's own digest, so every merged raster is bit-identical to
// single-node naive and uploads grow exactly when subset content differs.
func TestSameNameNewSubsetsNeverReuseStaleTiles(t *testing.T) {
	d := testData(5, 300)
	c, _, _ := cluster(t, 2, shard.Config{Replication: 1})
	uploads := int64(0)
	run := func(label string, bandwidth float64, tx, ty int, wantNewUploads bool) {
		t.Helper()
		req := kdvReq(kernel.MustNew(kernel.Quartic, bandwidth), tx, ty)
		got, err := c.KDV(context.Background(), d, "ev", req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertBitIdentical(t, singleNode(t, d, req), got.Values, label)
		now := counterValue(t, c, "shard_uploads_total")
		if grew := now > uploads; grew != wantNewUploads {
			t.Fatalf("%s: uploads %d -> %d, want growth = %v", label, uploads, now, wantNewUploads)
		}
		uploads = now
	}
	// Two bandwidths: the wider halo selects different tile subsets.
	run("b=5 2x2", 5, 2, 2, true)
	run("b=14 2x2", 14, 2, 2, true)
	run("b=14 2x2 again", 14, 2, 2, false)
	// Two tilings at one bandwidth.
	run("b=14 3x2", 14, 3, 2, true)
	run("b=14 2x2 after 3x2", 14, 2, 2, false)
	// A halo covering every point: the single tile's subset IS the dataset
	// for both bandwidths, so the second one re-uses the placed content.
	run("b=200 1x1", 200, 1, 1, true)
	run("b=300 1x1", 300, 1, 1, false)
}

// workerCounter reads one sample out of a worker's /metrics page; an
// absent sample reads 0.
func workerCounter(t *testing.T, client *http.Client, worker, sample string) int64 {
	t.Helper()
	resp, err := client.Get(worker + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// counterValue reads one counter out of the coordinator's /metrics text.
func counterValue(t *testing.T, c *shard.Coordinator, name string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := c.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimSpace(line[len(name)+1:]), 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d > baseline %d", n, baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
