package geostat_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
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

// Sharded-execution determinism: the coordinator must reproduce the
// single-node KDV raster and K-function plot Float64bits-for-Float64bits
// across every tile decomposition, worker count, and tile completion
// order — including runs where faults force retries and failovers. The
// merge is pure row placement and the workers evaluate exact subsets, so
// nothing about the schedule may leak into the output.

var shardBox = geom.BBox{MinX: 0, MinY: 0, MaxX: 120, MaxY: 90}

func shardData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(4242))
	return dataset.GaussianClusters(r, n, shardBox, []dataset.Cluster{
		{Center: geom.Point{X: 35, Y: 50}, Sigma: 9, Weight: 2},
		{Center: geom.Point{X: 90, Y: 25}, Sigma: 6, Weight: 1},
	}, 0.25)
}

func shardCluster(t *testing.T, n int, cfg shard.Config) (*shard.Coordinator, []*shardtest.Worker) {
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
	return c, workers
}

func sameBits(t *testing.T, want, got []float64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: index %d: %x != %x (%g vs %g)", label, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// TestShardedKDVDeterminismMatrix sweeps tile decompositions against
// worker counts. Every cell must match the same single-node raster.
func TestShardedKDVDeterminismMatrix(t *testing.T) {
	d := shardData(t, 350)
	req := shard.KDVRequest{
		Kernel: kernel.MustNew(kernel.Quartic, 10),
		Grid:   geom.NewPixelGrid(shardBox, 18, 15),
	}
	ref, err := kde.Evaluate(d.Columns(), kde.Naive, kde.Options{Kernel: req.Kernel, Grid: req.Grid})
	if err != nil {
		t.Fatal(err)
	}

	for _, tiles := range [][2]int{{1, 1}, {2, 2}, {3, 3}} {
		for _, nw := range []int{1, 2, 4} {
			name := fmt.Sprintf("%dx%d-tiles_%d-workers", tiles[0], tiles[1], nw)
			t.Run(name, func(t *testing.T) {
				c, _ := shardCluster(t, nw, shard.Config{Replication: 2})
				r := req
				r.TilesX, r.TilesY = tiles[0], tiles[1]
				got, err := c.KDV(context.Background(), d, "det", r)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, ref.Values, got.Values, name)
			})
		}
	}
}

// TestShardedKDVCompletionOrderInvariance delays tiles by different,
// per-run-scrambled amounts so completion order is shuffled, and runs one
// permutation with injected retries on top. The merged raster must not
// care when (or on which attempt) each tile landed.
func TestShardedKDVCompletionOrderInvariance(t *testing.T) {
	d := shardData(t, 300)
	req := shard.KDVRequest{
		Kernel: kernel.MustNew(kernel.Epanechnikov, 12),
		Grid:   geom.NewPixelGrid(shardBox, 18, 15),
		TilesX: 3, TilesY: 3,
	}
	ref, err := kde.Evaluate(d.Columns(), kde.Naive, kde.Options{Kernel: req.Kernel, Grid: req.Grid})
	if err != nil {
		t.Fatal(err)
	}

	delayPerms := [][]time.Duration{
		{0, 40, 80, 10, 70, 20, 60, 30, 50},
		{80, 0, 50, 70, 10, 60, 20, 40, 30},
		{30, 60, 0, 50, 80, 10, 70, 20, 40},
	}
	for perm, delays := range delayPerms {
		injectRetries := perm == 2 // last permutation also takes the fault path
		name := fmt.Sprintf("perm-%d", perm)
		if injectRetries {
			name += "-with-retries"
		}
		t.Run(name, func(t *testing.T) {
			c, workers := shardCluster(t, 2, shard.Config{
				Replication: 2, Retries: 3, Backoff: time.Millisecond, Concurrency: 9,
			})
			for tile, ms := range delays {
				for _, w := range workers {
					w.Script(shardtest.Rule{
						Tool:  "kdv",
						Tile:  tileParam(req, tile),
						Times: 1,
						Delay: time.Duration(ms) * time.Millisecond / 4,
					})
				}
			}
			if injectRetries {
				workers[0].Script(shardtest.Rule{Tool: "kdv", Times: 2, Status: http.StatusServiceUnavailable})
				workers[1].Script(shardtest.Rule{Tool: "kdv", Times: 1, Corrupt: true})
			}
			got, err := c.KDV(context.Background(), d, "det", req)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, ref.Values, got.Values, name)
		})
	}
}

// tileParam reproduces the tile= query value the planner emits for tile
// id over req's grid, so delay rules can target individual tiles.
func tileParam(req shard.KDVRequest, id int) string {
	tx := req.TilesX
	ix, iy := id%tx, id/tx
	x0 := ix * req.Grid.NX / tx
	y0 := iy * req.Grid.NY / req.TilesY
	nx := (ix+1)*req.Grid.NX/tx - x0
	ny := (iy+1)*req.Grid.NY/req.TilesY - y0
	return fmt.Sprintf("%d,%d,%d,%d", x0, y0, nx, ny)
}

// TestShardedKFunctionDeterminismMatrix sweeps worker counts against the
// faults that force the one K-function request to be retried or failed
// over; the plot (including Monte-Carlo envelopes) must equal the
// single-node plot exactly, whichever worker owns the dataset and on
// whichever attempt the request lands.
func TestShardedKFunctionDeterminismMatrix(t *testing.T) {
	d := shardData(t, 180)
	thresholds := []float64{4, 8, 12, 16, 20, 24, 28, 32, 36}
	plot, err := kfunc.MakePlot(d.Points(), kfunc.PlotOptions{
		Thresholds: thresholds, Simulations: 4,
	}, parallel.NewRand(99))
	if err != nil {
		t.Fatal(err)
	}

	faults := []struct {
		name string
		rule *shardtest.Rule // scripted once on every worker; nil is healthy
	}{
		{"healthy", nil},
		{"503", &shardtest.Rule{Tool: "kfunction", Times: 1, Status: http.StatusServiceUnavailable}},
		{"drop", &shardtest.Rule{Tool: "kfunction", Times: 1, DropMidBody: true}},
		{"corrupt", &shardtest.Rule{Tool: "kfunction", Times: 1, Corrupt: true}},
	}
	for _, f := range faults {
		for _, nw := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s_%d-workers", f.name, nw)
			t.Run(name, func(t *testing.T) {
				c, workers := shardCluster(t, nw, shard.Config{
					Replication: 2, Retries: 3, Backoff: time.Millisecond,
				})
				if f.rule != nil {
					for _, w := range workers {
						w.Script(*f.rule)
					}
				}
				got, err := c.KFunction(context.Background(), d, "det", shard.KFuncRequest{
					Thresholds: thresholds, Sims: 4, Seed: 99,
				})
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, plot.S, got.S, name+" s")
				sameBits(t, plot.K, got.K, name+" k")
				sameBits(t, plot.Lo, got.Lo, name+" lo")
				sameBits(t, plot.Hi, got.Hi, name+" hi")
				if f.rule == nil {
					return
				}
				// Each owner (one, or owner and replica) fails once
				// before an attempt succeeds.
				fired := 0
				for _, w := range workers {
					fired += w.Hits("status") + w.Hits("drop") + w.Hits("corrupt")
				}
				if want := min(nw, 2); fired != want {
					t.Fatalf("%d faults fired, want %d", fired, want)
				}
			})
		}
	}
}
