// Package shard implements the scale-out coordinator for geostat's
// distributed tile execution (ROADMAP item 1): it splits a KDV raster
// into pixel-window tiles with halo-replicated point subsets, places the
// per-tile datasets on geostatd workers with a consistent-hash ring, fans
// the work out over the workers' HTTP API with per-tile timeouts, bounded
// retries and replica failover, and merges the partial results into
// output that is bit-identical to a single-node run. A K-function plot
// is placed the same way and sent whole to one owner.
//
// The exactness argument (see DESIGN.md "Sharded execution"):
//
//   - KDV tiles request windowed (tile=) naive evaluation over the FULL
//     grid spec, so workers compute the same pixel-center coordinates the
//     single-node run does.
//   - Each tile's point subset is the halo filter — every point within
//     the kernel's support radius of the tile's pixel box. Finite-support
//     kernels map all other points to exactly 0, and the naive evaluator
//     skips zero terms rather than adding them, so the subset sum equals
//     the full sum, bit for bit. Order is preserved by the filter, fixing
//     the IEEE accumulation order.
//   - A K-function plot is one worker request over the full dataset and
//     the full threshold list, so it is the single-node computation.
//
// Concurrency and cleanup obey the repo's obligation gates: fan-out runs
// through internal/parallel (no raw goroutines), every per-attempt
// context is cancelled on all paths, and every response body is closed
// including retry and failure paths.
package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/obs"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Config configures a Coordinator.
type Config struct {
	// Workers is the worker base URL list ("http://host:port"). Required.
	Workers []string
	// Replication is how many distinct workers own each dataset (and can
	// serve its tiles); failover walks this replica set. Clamped to the
	// worker count; <= 0 means 2.
	Replication int
	// Retries is how many additional attempts a failed tile gets beyond
	// the first; < 0 means 0. Attempts rotate through the replica set.
	Retries int
	// Backoff is the base retry delay, doubling per attempt; <= 0 means
	// 50ms. The wait honours the run context.
	Backoff time.Duration
	// Timeout bounds each worker attempt (ensure + compute); <= 0 means
	// 30s.
	Timeout time.Duration
	// Concurrency caps in-flight tiles; <= 0 means 2 per worker.
	Concurrency int
	// Client is the HTTP client; nil means http.DefaultClient. Tests
	// inject httptest clients here.
	Client *http.Client
	// Metrics receives the shard_* metrics; nil creates a private
	// registry (exposed via Coordinator.Metrics).
	Metrics *obs.Registry
}

// Coordinator fans sharded computations out over a fixed worker set. It
// is safe for concurrent use; the ensured-placement cache carries over
// between runs, so repeated computations over the same dataset skip
// re-uploading tiles.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	client  *http.Client
	metrics *obs.Registry

	mTiles     *obs.Counter
	mBands     *obs.Counter
	mRetries   *obs.Counter
	mFailovers *obs.Counter
	mUploads   *obs.Counter
	gInflight  *obs.Gauge

	mu      sync.Mutex
	ensured map[string]bool // "worker|dataset" the worker is known to hold
}

// New validates cfg and returns a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Workers, 64)
	if err != nil {
		return nil, err
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2 * len(cfg.Workers)
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    ring,
		client:  cfg.Client,
		metrics: cfg.Metrics,
		ensured: make(map[string]bool),
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.metrics == nil {
		c.metrics = obs.NewRegistry()
	}
	c.mTiles = c.metrics.Counter("shard_tiles_total", "KDV tiles merged into sharded results")
	c.mBands = c.metrics.Counter("shard_bands_total", "K-function bands merged into sharded results")
	c.mRetries = c.metrics.Counter("shard_retries_total", "tile attempts beyond the first")
	c.mFailovers = c.metrics.Counter("shard_failovers_total", "tile attempts moved to a different replica")
	c.mUploads = c.metrics.Counter("shard_uploads_total", "dataset uploads pushed to workers")
	c.gInflight = c.metrics.Gauge("shard_tiles_inflight", "tile requests executing now")
	return c, nil
}

// Metrics returns the coordinator's metric registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// KDV runs one sharded KDV computation and returns the merged full-extent
// raster, bit-identical to the equivalent single-node naive evaluation.
func (c *Coordinator) KDV(ctx context.Context, d *dataset.Dataset, name string, req KDVRequest) (*raster.Grid, error) {
	ctx, span := obs.Trace(ctx, "shard.kdv")
	defer span.End()
	_, plspan := obs.Trace(ctx, "shard.plan")
	plan, err := PlanKDV(d, name, req)
	plspan.End()
	if err != nil {
		return nil, err
	}
	span.SetAttrInt("tiles", int64(len(plan.Tiles)))

	parts := make([][]float64, len(plan.Tiles))
	err = c.dispatch(ctx, len(plan.Tiles), func(tctx context.Context, i int) error {
		t := &plan.Tiles[i]
		if t.Empty() {
			return nil // zero-filled in the merge; workers reject empty datasets
		}
		vals, terr := c.computeTile(tctx, plan, t)
		if terr != nil {
			return fmt.Errorf("tile %d (%s): %w", t.ID, t.Dataset, terr)
		}
		parts[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}

	_, mspan := obs.Trace(ctx, "shard.merge")
	defer mspan.End()
	out := raster.NewGrid(req.Grid)
	for i := range plan.Tiles {
		t := &plan.Tiles[i]
		if !t.Empty() {
			mergeWindow(out, t.Window, parts[i])
		}
	}
	if req.Normalize {
		// Same scale expression and elementwise multiply as the
		// single-node run: NormConst/n over the FULL point count.
		scale := req.Kernel.NormConst() / float64(plan.N)
		for i := range out.Values {
			out.Values[i] *= scale
		}
	}
	return out, nil
}

// mergeWindow copies a tile raster into its window of the full raster,
// row by row. Copies are placement only — no arithmetic — so completion
// order cannot affect the merged bits.
func mergeWindow(out *raster.Grid, w geom.GridWindow, vals []float64) {
	nx := out.Spec.NX
	for iy := 0; iy < w.NY; iy++ {
		dst := (w.Y0+iy)*nx + w.X0
		copy(out.Values[dst:dst+w.NX], vals[iy*w.NX:(iy+1)*w.NX])
	}
}

// computeTile runs one tile to completion: ensure placement on the
// attempt's worker, fetch the windowed raster, validate its shape.
func (c *Coordinator) computeTile(ctx context.Context, plan *KDVPlan, t *Tile) ([]float64, error) {
	ctx, span := obs.Trace(ctx, "shard.tile")
	defer span.End()
	span.SetAttrInt("tile", int64(t.ID))
	span.SetAttrInt("points", int64(t.n))
	c.gInflight.Add(1)
	defer c.gInflight.Add(-1)

	var vals []float64
	err := c.withRetry(ctx, t.Dataset, func(actx context.Context, worker string) error {
		if err := c.ensure(actx, worker, t.Dataset, t.Digest, t.csv); err != nil {
			return err
		}
		body, err := c.get(actx, worker, "/v1/kdv", plan.tileQuery(t))
		if err != nil {
			c.forgetIfLost(err, worker, t.Dataset)
			return err
		}
		var resp KDVResult
		if err := resp.UnmarshalBinary(body); err != nil {
			return fmt.Errorf("shard: corrupt tile payload: %w", err)
		}
		if resp.Width != t.Window.NX || resp.Height != t.Window.NY {
			return fmt.Errorf("shard: corrupt tile payload: %dx%d, want %dx%d",
				resp.Width, resp.Height, t.Window.NX, t.Window.NY)
		}
		vals = resp.Values
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.mTiles.Inc()
	return vals, nil
}

// KDVResult is the /v1/kdv payload: a worker's tile, or geoshard's merged
// raster. As JSON it is one object; as format=f64, the tile hop's encoding
// (MarshalBinary), its scalars are one JSON line and its values follow it
// as raw float64.
type KDVResult struct {
	Dataset string    `json:"dataset"`
	Method  string    `json:"method"`
	Width   int       `json:"width"`
	Height  int       `json:"height"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Sum     float64   `json:"sum"`
	Values  []float64 `json:"values,omitempty"` // row-major, Width·Height of them
}

// MarshalBinary encodes r as format=f64: the JSON object without its
// values, "\n", then each value's IEEE 754 bits as 8 little-endian bytes.
// It is 8 bytes a value where JSON takes about 20, and the bits come back
// exactly: −0, subnormals and every NaN payload included.
func (r KDVResult) MarshalBinary() ([]byte, error) {
	vals := r.Values
	r.Values = nil
	head, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(head)+1+8*len(vals))
	b = append(append(b, head...), '\n')
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// UnmarshalBinary decodes a format=f64 body. It fails, leaving r as it
// was, on a body without the header line, on value bytes that are not a
// whole number of float64s, and on a value count other than Width·Height.
func (r *KDVResult) UnmarshalBinary(body []byte) error {
	head, raw, ok := bytes.Cut(body, []byte{'\n'})
	if !ok {
		return errors.New("no header line")
	}
	var h KDVResult
	if err := json.Unmarshal(head, &h); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if len(raw)%8 != 0 {
		return fmt.Errorf("%d value bytes, not a multiple of 8", len(raw))
	}
	n := len(raw) / 8
	if h.Width <= 0 || h.Height <= 0 || n%h.Width != 0 || n/h.Width != h.Height {
		return fmt.Errorf("%dx%d with %d values", h.Width, h.Height, n)
	}
	h.Values = make([]float64, n)
	for i := range h.Values {
		h.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	*r = h
	return nil
}

// KFuncResult is a sharded K-function plot: the single-node serve
// payload, field for field, with Dataset the logical name.
type KFuncResult struct {
	Dataset string    `json:"dataset"`
	S       []float64 `json:"s"`
	K       []float64 `json:"k"`
	Lo      []float64 `json:"lo"`
	Hi      []float64 `json:"hi"`
	Sims    int       `json:"sims"`
	Regimes []string  `json:"regimes"`
}

// KFunction places the full dataset and sends the whole threshold list to
// one owner as one /v1/kfunction request, retried and failed over like a
// tile. The plot is the single-node evaluation of the full threshold
// list, bit for bit.
func (c *Coordinator) KFunction(ctx context.Context, d *dataset.Dataset, name string, req KFuncRequest) (*KFuncResult, error) {
	ctx, span := obs.Trace(ctx, "shard.kfunction")
	defer span.End()
	plan, err := PlanKFunc(d, name, req)
	if err != nil {
		return nil, err
	}
	c.gInflight.Add(1)
	defer c.gInflight.Add(-1)

	n := len(req.Thresholds)
	var res KFuncResult
	err = c.withRetry(ctx, plan.Dataset, func(actx context.Context, worker string) error {
		if eerr := c.ensure(actx, worker, plan.Dataset, plan.Digest, plan.csv); eerr != nil {
			return eerr
		}
		var resp KFuncResult
		if gerr := c.getJSON(actx, worker, "/v1/kfunction", plan.query(), &resp); gerr != nil {
			c.forgetIfLost(gerr, worker, plan.Dataset)
			return gerr
		}
		if len(resp.S) != n || len(resp.K) != n || len(resp.Lo) != n ||
			len(resp.Hi) != n || len(resp.Regimes) != n {
			return fmt.Errorf("shard: corrupt K-function payload: %d/%d/%d/%d/%d entries, want %d",
				len(resp.S), len(resp.K), len(resp.Lo), len(resp.Hi), len(resp.Regimes), n)
		}
		res = resp
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.mBands.Add(int64(n))
	res.Dataset = name
	return &res, nil
}

// dispatch fans n jobs out with the configured concurrency. The first
// job error cancels the run context shared by every other job (leader
// cancel), and that first error is returned. A nil error means every job
// completed.
func (c *Coordinator) dispatch(ctx context.Context, n int, job func(ctx context.Context, i int) error) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once     sync.Once
		firstErr error
	)
	// When the leader cancel fires, ForCtx returns runCtx's error; the
	// job error captured below is the meaningful one to surface.
	ferr := parallel.ForCtx(runCtx, n, c.cfg.Concurrency, func(i int) {
		if runCtx.Err() != nil {
			return // leader already cancelled; don't start new work
		}
		if err := job(runCtx, i); err != nil {
			once.Do(func() {
				firstErr = err
				cancel()
			})
		}
	})
	if firstErr != nil {
		return firstErr
	}
	return ferr
}

// withRetry runs fn against the dataset's replica set with per-attempt
// timeouts, exponential backoff and failover: attempt k goes to replica
// k mod len(owners). Non-retryable errors (validation 4xx, context
// cancellation) abort immediately.
func (c *Coordinator) withRetry(ctx context.Context, key string, fn func(ctx context.Context, worker string) error) error {
	owners := c.ring.Owners(key, c.cfg.Replication)
	attempts := c.cfg.Retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.mRetries.Inc()
			if err := sleepCtx(ctx, c.cfg.Backoff<<(a-1)); err != nil {
				return err
			}
		}
		worker := owners[a%len(owners)]
		if a > 0 && worker != owners[(a-1)%len(owners)] {
			c.mFailovers.Inc()
		}
		err := func() error {
			// The attempt context is cancelled on every path: normal
			// return, error return, and panic unwind.
			actx, acancel := context.WithTimeout(ctx, c.cfg.Timeout)
			defer acancel()
			return fn(actx, worker)
		}()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The run was cancelled (leader cancel or caller): report the
			// cancellation, not the attempt's collateral failure.
			return ctx.Err()
		}
		if !retryable(err) {
			return fmt.Errorf("%s: %w", worker, err)
		}
		lastErr = fmt.Errorf("%s: %w", worker, err)
	}
	return fmt.Errorf("failed after %d attempts: %w", attempts, lastErr)
}

// ensure makes worker hold the named dataset with the expected digest:
// a cache hit is trusted; otherwise the worker's digest endpoint decides
// whether to upload. A digest mismatch after upload is corrupt transport.
func (c *Coordinator) ensure(ctx context.Context, worker, name, digest string, csv []byte) error {
	ckey := worker + "|" + name
	c.mu.Lock()
	ok := c.ensured[ckey]
	c.mu.Unlock()
	if ok {
		return nil
	}
	ctx, span := obs.Trace(ctx, "shard.ensure")
	defer span.End()

	var info digestInfo
	err := c.getJSON(ctx, worker, "/v1/datasets/"+name+"/digest", nil, &info)
	if err == nil && info.Digest == digest {
		c.markEnsured(ckey)
		return nil
	}
	var he *httpError
	if err != nil && !(errors.As(err, &he) && he.status == http.StatusNotFound) {
		return err
	}
	// Unknown name or stale content: upload and verify.
	if uerr := c.postCSV(ctx, worker, name, csv); uerr != nil {
		return uerr
	}
	c.mUploads.Inc()
	if gerr := c.getJSON(ctx, worker, "/v1/datasets/"+name+"/digest", nil, &info); gerr != nil {
		return gerr
	}
	if info.Digest != digest {
		return fmt.Errorf("shard: dataset %s on %s has digest %.12s after upload, want %.12s",
			name, worker, info.Digest, digest)
	}
	c.markEnsured(ckey)
	return nil
}

func (c *Coordinator) markEnsured(key string) {
	c.mu.Lock()
	c.ensured[key] = true
	c.mu.Unlock()
}

// forgetIfLost drops the placement cache entry when a compute 404s — the
// worker lost its datasets (restart) and the next attempt must re-ensure.
func (c *Coordinator) forgetIfLost(err error, worker, name string) {
	var he *httpError
	if errors.As(err, &he) && he.status == http.StatusNotFound {
		c.mu.Lock()
		delete(c.ensured, worker+"|"+name)
		c.mu.Unlock()
	}
}

// sleepCtx waits d, returning early with ctx.Err() when the run is
// cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
