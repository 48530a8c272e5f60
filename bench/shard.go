package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	"geostat"
	"geostat/internal/parallel"
	"geostat/internal/serve"
	"geostat/internal/shard"
)

// shardTarget is two serve.Server workers on loopback listeners and one
// shard.Coordinator in front of them, driven by one caller.
type shardTarget struct {
	d       *geostat.Dataset
	workers []*httptest.Server
	coord   *shard.Coordinator
	wire    *countingTransport
	ver     *verifier

	mu     sync.Mutex
	firsts []firstGrid    // first merged raster of every key, checked in finish
	uses   map[string]int // ops executed per key
}

type firstGrid struct {
	o    *op
	vals []float64
}

// countingTransport counts what the coordinator puts on the wire: requests,
// and the bytes of dataset uploads. It is the benchmark's own probe at the
// coordinator→worker boundary; the program has no such counter.
type countingTransport struct {
	base        http.RoundTripper
	requests    atomic.Int64
	uploadBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if r.Method == http.MethodPost && r.ContentLength > 0 {
		c.uploadBytes.Add(r.ContentLength)
	}
	return c.base.RoundTrip(r)
}

func newShardTarget(d *geostat.Dataset) (*shardTarget, error) {
	t := &shardTarget{d: d, ver: newVerifier(), uses: make(map[string]int),
		wire: &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 8}}}
	var urls []string
	for i := 0; i < 2; i++ {
		w := httptest.NewServer(serve.NewServer(serve.Config{CacheBytes: workerCacheBytes, Workers: 1}))
		t.workers = append(t.workers, w)
		urls = append(urls, w.URL)
	}
	var err error
	t.coord, err = shard.New(shard.Config{Workers: urls, Replication: 2, Client: &http.Client{Transport: t.wire}})
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *shardTarget) close() {
	for _, w := range t.workers {
		w.Close()
	}
	if tr, ok := t.wire.base.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

func shardRequest(s kdvSpec, tiles int) (shard.KDVRequest, error) {
	opt, err := s.options()
	if err != nil {
		return shard.KDVRequest{}, err
	}
	return shard.KDVRequest{Kernel: opt.Kernel, Grid: opt.Grid, TilesX: tiles, TilesY: tiles}, nil
}

func (t *shardTarget) run(ctx context.Context, _ int, o *op, tr opTrace) (opInfo, error) {
	req, err := shardRequest(*o.KDV, shardTiles)
	if err != nil {
		return opInfo{}, err
	}
	sp := tr.start("shard.Coordinator.KDV")
	g, err := t.coord.KDV(ctx, t.d, o.Name, req)
	tr.end(sp, "class", o.Class)
	if err != nil {
		return opInfo{}, err
	}
	return opInfo{}, t.observe(o, g.Values)
}

func (t *shardTarget) observe(o *op, vals []float64) error {
	fresh, err := t.ver.observe(o.Key, gridDigest(vals))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.uses[o.Key]++
	if fresh {
		t.firsts = append(t.firsts, firstGrid{o: o, vals: vals})
	}
	return err
}

// shardTol is how far a merged raster may be from the single-node auto
// result, as a share of the peak: the tiles are naive sums and auto is the
// sweep line or the grid cutoff (see exactTol).
const shardTol = exactTol

// finish compares every key's first merged raster with the single-node
// auto evaluation of the same request, then re-runs the first key cut 2×2
// under a fresh placement: it must equal the 4×4 result bit for bit.
func (t *shardTarget) finish(ctx context.Context) []error {
	errs := make([]error, len(t.firsts))
	_ = parallel.ForCtx(ctx, len(t.firsts), -1, func(i int) {
		errs[i] = checkMerged(ctx, t.d, *t.firsts[i].o.KDV, t.firsts[i].vals)
	})
	keys := make([]string, len(t.firsts))
	for i, f := range t.firsts {
		keys[i] = f.o.Key
	}
	out := failedOps(keys, errs, t.uses)
	if len(t.firsts) > 0 {
		f := t.firsts[0]
		req, err := shardRequest(*f.o.KDV, 2)
		if err == nil {
			var g *geostat.Heatmap
			if g, err = t.coord.KDV(ctx, t.d, "big.check2x2", req); err == nil && gridDigest(g.Values) != gridDigest(f.vals) {
				err = fmt.Errorf("2x2 tiling differs from 4x4 tiling of the same request")
			}
		}
		if err != nil {
			out = append(out, fmt.Errorf("%s: %w", f.o.Key, err))
		}
	}
	return out
}

// checkMerged compares a merged raster with the single-node auto result.
func checkMerged(ctx context.Context, d *geostat.Dataset, s kdvSpec, vals []float64) error {
	opt, err := s.options()
	if err != nil {
		return err
	}
	ref, err := geostat.KDVDatasetCtx(ctx, d, opt)
	if err != nil {
		return err
	}
	if diff := maxPeakDiff(vals, ref.Values); diff > shardTol {
		return fmt.Errorf("merged raster is %.3g of the peak away from single-node auto (allowed %g)", diff, shardTol)
	}
	return nil
}

// counters merges the coordinator's registry with the benchmark's wire
// counts.
func (t *shardTarget) counters(context.Context) map[string]float64 {
	var buf bytes.Buffer
	if err := t.coord.Metrics().WritePrometheus(&buf); err != nil {
		return nil
	}
	m := promCounters(&buf)
	m["bench_wire_requests"] = float64(t.wire.requests.Load())
	m["bench_wire_upload_bytes"] = float64(t.wire.uploadBytes.Load())
	return m
}

// shardLayer derives the shard layer's numbers: latency by op class,
// coordinator counter deltas, wire counts, and the single-node baseline.
func shardLayer(ctx context.Context, t *shardTarget, rec *recorder, samples []sample, before, after map[string]float64, m map[string]float64) error {
	for _, class := range []string{"cold", "warm", "hot"} {
		m["shard."+class+"_ms"] = medianWhere(samples, func(s sample) bool { return s.op.Class == class })
	}
	setCounter(m, "shard.tiles_total", before, after, "shard_tiles_total")
	setCounter(m, "shard.uploads_total", before, after, "shard_uploads_total")
	setCounter(m, "shard.retries_total", before, after, "shard_retries_total")
	setCounter(m, "shard.failovers_total", before, after, "shard_failovers_total")
	up, _ := counterDelta(before, after, "bench_wire_upload_bytes")
	m["shard.upload_mb"] = up / (1 << 20)

	// What planning alone costs, outside every op's clock: a 1-in-8 sample
	// of the ops is planned again under replay spans.
	for _, s := range samples {
		if s.op.ID%8 != 0 {
			continue
		}
		req, err := shardRequest(*s.op.KDV, shardTiles)
		if err != nil {
			return err
		}
		root := rec.start(-1, s.op.ID, "replay")
		sp := rec.start(root, s.op.ID, "shard.PlanKDV")
		_, err = shard.PlanKDV(t.d, s.op.Name, req)
		rec.end(sp)
		rec.end(root, "class", s.op.Class)
		if err != nil {
			return err
		}
	}

	// The same request on one node with auto: today sharding does more work
	// than not sharding, and this ratio records by how much.
	for _, s := range samples {
		if s.op.Class != "warm" {
			continue
		}
		opt, err := s.op.KDV.options()
		if err != nil {
			return err
		}
		single, err := timeMS(3, func() error {
			_, kerr := geostat.KDVDatasetCtx(ctx, t.d, opt)
			return kerr
		})
		if err != nil {
			return err
		}
		if single > 0 {
			m["shard.vs_single_ratio"] = m["shard.warm_ms"] / single
		}
		break
	}
	return nil
}
