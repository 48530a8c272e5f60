package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geostat"
	"geostat/internal/parallel"
)

// sizes are the input sizes of the workloads and probes. The smoke sizes
// (datasets and probes at 1/10, plans at 1/20) keep `go test` short.
type sizes struct {
	bigN, cityN, surveyN, coldN, shardN      int
	libRounds, mixedRounds, shardRounds      int
	tileOps, tileWarm                        int
	probeN, probeKN, probeEvals, probePixels int
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{
			bigN: 10_000, cityN: 5_000, surveyN: 600, coldN: 200, shardN: 3_000,
			libRounds: 5, mixedRounds: 8, shardRounds: 10, tileOps: 4_000, tileWarm: 60,
			probeN: 10_000, probeKN: 600, probeEvals: 1 << 17, probePixels: 64,
		}
	}
	return sizes{
		bigN: 100_000, cityN: 20_000, surveyN: 6_000, coldN: 2_000, shardN: 30_000,
		libRounds: 100, mixedRounds: 160, shardRounds: 200, tileOps: 80_000, tileWarm: 1_200,
		probeN: 100_000, probeKN: 6_000, probeEvals: 1 << 20, probePixels: 256,
	}
}

// Result-cache budgets: serve_tiles' is smaller than its 85 JSON bodies and
// larger than its PNGs; the other two never evict.
const (
	tileCacheBytes   = 12 << 20
	mixedCacheBytes  = 48 << 20
	workerCacheBytes = 64 << 20
)

// callersOf is the closed-loop client count of each workload: every caller
// sends its next op when its previous one has returned.
var callersOf = map[string]int{"lib_kdv": 1, "serve_tiles": 2, "serve_mixed": 2, "shard_kdv": 1}

// opInfo is what a target reports about one completed op beside its error.
type opInfo struct {
	cache string // X-Cache of the op's last GET: hit, miss or coalesced
	bytes int    // response bytes read
}

// target is the program under test for one workload, booted, loaded and
// reached only through its public surface.
type target interface {
	// run performs one op and checks its outputs, recording a child span
	// of tr around every call into the program.
	run(ctx context.Context, caller int, o *op, tr opTrace) (opInfo, error)
	// finish runs the checks kept out of the measured phase (reference
	// evaluation, replays) and returns one error per op that fails them.
	finish(ctx context.Context) []error
	// counters returns the program's own counters by exposition name.
	counters(ctx context.Context) map[string]float64
	close()
}

// env is one complete set-up of a workload.
type env struct {
	plan *plan
	t    target
}

// setUp generates the datasets and the plan from the seed, boots the
// program, loads it and makes the untimed warm-up pass.
func setUp(ctx context.Context, workload string, seed int64, sz sizes) (*env, error) {
	var (
		e   = &env{}
		err error
	)
	switch workload {
	case "lib_kdv":
		e.plan = planLibKDV(seed, sz.libRounds)
		e.t = newLibTarget(clustered(seed, sz.bigN))
	case "serve_tiles":
		city := clustered(seed, sz.cityN)
		e.plan = planServeTiles(seed, sz.cityN, sz.tileWarm, sz.tileOps)
		e.t, err = newServeTarget(ctx, tileCacheBytes, map[string]*geostat.Dataset{"city": city}, nil)
	case "serve_mixed":
		survey := withSurveyField(seed, clustered(seed, sz.surveyN))
		cold := clustered(seed+1, sz.coldN)
		e.plan = planServeMixed(seed, sz.mixedRounds)
		e.t, err = newServeTarget(ctx, mixedCacheBytes, map[string]*geostat.Dataset{"survey": survey}, cold)
	case "shard_kdv":
		e.plan = planShardKDV(seed, sz.shardRounds)
		e.t, err = newShardTarget(clustered(seed, sz.shardN))
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	callers := callersOf[workload]
	warm := &plan{Workload: workload, Round: 1, Ops: e.plan.Warm}
	for _, s := range measure(ctx, e.t, warm, callers, 0, len(warm.Ops), nil).samples() {
		if s.err != nil {
			e.t.close()
			return nil, fmt.Errorf("warm-up op %d (%s): %w", s.op.ID, s.op.Class, s.err)
		}
	}
	return e, nil
}

// sample is one executed op of the measured phase.
type sample struct {
	op   *op
	ms   float64
	info opInfo
	err  error
}

// A measured phase is cut into sliceCount equal time slices with a short
// calibration spin between them: a fixed piece of arithmetic on every core
// whose duration says how much of the machine the benchmark is getting at
// that moment. Rates and percentiles are taken per slice and the reported
// value is the median over the quiet slices: those whose calibrations are
// within quietBand of the run's fastest, and never fewer than minQuiet. A
// spell of somebody else's load on the machine (on the reference machine
// they last from seconds to a minute and cost up to a third of the speed)
// then costs the run some slices and not its result. The choice never looks
// at a slice's own speed.
const (
	sliceCount = 8
	quietBand  = 1.10
	minQuiet   = 3
)

// calibrate times a fixed arithmetic loop on every core at once and returns
// the slowest core's time in milliseconds. It collects garbage first, so
// that the collector's background work for the slice before does not pass
// for load on the machine.
func calibrate(ctx context.Context) float64 {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	ms, sums := make([]float64, n), make([]float64, n)
	_ = parallel.ForCtx(ctx, n, n, func(i int) {
		t0 := time.Now()
		s := 0.0
		for j := 0; j < 7_500_000; j++ {
			s += math.Exp(-float64(j&1023) / 300)
		}
		sums[i], ms[i] = s, float64(time.Since(t0))/1e6
	})
	sink += sums[0] // keeps the loop from being optimised away
	return slices.Max(ms)
}

// slice is one measured stretch of the plan with the process-wide costs
// taken around it.
type slice struct {
	samples []sample // executed ops in plan order
	wallS   float64
	cpuS    float64
	allocMB float64
	calibMS float64 // the slower of the calibrations before and after
}

// phase is one measured pass over a plan prefix.
type phase struct {
	slices []slice
}

func (p phase) samples() []sample {
	var out []sample
	for _, s := range p.slices {
		out = append(out, s.samples...)
	}
	return out
}

func (p phase) wallS() float64 {
	w := 0.0
	for _, s := range p.slices {
		w += s.wallS
	}
	return w
}

// measure runs the plan from its first op for d, in sliceCount slices (d = 0:
// one slice without a time limit), or until maxOps ops have run.
func measure(ctx context.Context, t target, p *plan, callers int, d time.Duration, maxOps int, rec *recorder) phase {
	var ph phase
	n := min(maxOps, len(p.Ops))
	if d == 0 {
		runtime.GC() // start from a collected heap, as the calibrated slices do
		s, _ := measureSlice(ctx, t, p, 0, n, callers, 0, rec)
		return phase{slices: []slice{s}}
	}
	before := calibrate(ctx)
	for k, from := 0, 0; k < sliceCount && from < n; k++ {
		s, next := measureSlice(ctx, t, p, from, n, callers, d/sliceCount, rec)
		after := calibrate(ctx)
		s.calibMS = max(before, after)
		ph.slices = append(ph.slices, s)
		from, before = next, after
	}
	return ph
}

// measureSlice runs ops [from, to) of the plan in order from `callers`
// closed-loop callers sharing one cursor, and stops early at the first round
// boundary reached after d has passed (d = 0: no time limit). Every slice
// is whole rounds, so it holds the plan's exact class mix. It returns the
// slice and the index of the first op not run. With rec set every op gets a
// root span.
func measureSlice(ctx context.Context, t target, p *plan, from, to, callers int, d time.Duration, rec *recorder) (slice, int) {
	samples := make([]sample, to-from)
	var cursor, limit atomic.Int64
	cursor.Store(int64(from))
	limit.Store(int64(to))
	cpu0, alloc0, start := cpuSeconds(), totalAllocMB(), time.Now()
	// ForCtx returns ctx.Err() only; an op that fails records its own error.
	_ = parallel.ForCtx(ctx, callers, callers, func(c int) {
		for {
			i := cursor.Add(1) - 1
			if i >= limit.Load() {
				return
			}
			if d > 0 && i%int64(p.Round) == 0 && time.Since(start) >= d {
				for cur := limit.Load(); i < cur && !limit.CompareAndSwap(cur, i); cur = limit.Load() {
				}
				return
			}
			o := &p.Ops[i]
			root := rec.start(-1, o.ID, "op")
			t0 := time.Now()
			info, err := t.run(ctx, c, o, opTrace{rec: rec, root: root, op: o.ID})
			el := time.Since(t0)
			rec.end(root, "class", o.Class, "caller", fmt.Sprint(c))
			samples[i-int64(from)] = sample{op: o, ms: float64(el) / 1e6, info: info, err: err}
		}
	})
	s := slice{wallS: time.Since(start).Seconds(), cpuS: cpuSeconds() - cpu0, allocMB: totalAllocMB() - alloc0}
	next := from
	for _, sm := range samples {
		if sm.op != nil {
			s.samples = append(s.samples, sm)
			next = sm.op.ID + 1
		}
	}
	return s, next
}

// sliceStats are the end-to-end rates and percentiles of one slice.
type sliceStats struct {
	opsPerS, p50MS, p95MS, cpuSPerOp, allocMBPerOp, calibMS float64
}

func (s slice) stats() sliceStats {
	ms := make([]float64, len(s.samples))
	failed := 0
	for i, sm := range s.samples {
		ms[i] = sm.ms
		if sm.err != nil {
			failed++
		}
	}
	n := float64(len(ms))
	return sliceStats{
		opsPerS:      (n - float64(failed)) / s.wallS,
		p50MS:        percentile(ms, 50),
		p95MS:        percentile(ms, 95),
		cpuSPerOp:    s.cpuS / n,
		allocMBPerOp: s.allocMB / n,
		calibMS:      s.calibMS,
	}
}

// quietStats returns the stats of the quiet slices, quietest first.
func (p phase) quietStats() []sliceStats {
	var ss []sliceStats
	for _, s := range p.slices {
		if len(s.samples) > 0 {
			ss = append(ss, s.stats())
		}
	}
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].calibMS < ss[j].calibMS })
	keep := 0
	for keep < len(ss) && (keep < minQuiet || ss[keep].calibMS <= quietBand*ss[0].calibMS) {
		keep++
	}
	return ss[:keep]
}

// medianOf is the median over slices of one of their stats.
func medianOf(ss []sliceStats, get func(sliceStats) float64) float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = get(s)
	}
	return median(vals)
}

// classShare is one row of the time-share table: how much of the summed op
// latency a class accounts for.
type classShare struct {
	Class     string
	Ops       int
	MedianMS  float64
	ShareTime float64
	Hits      int // ops answered from the result cache (serving workloads)
}

func classShares(samples []sample) []classShare {
	byClass := make(map[string][]float64)
	hits := make(map[string]int)
	var order []string
	total := 0.0
	for _, s := range samples {
		if _, ok := byClass[s.op.Class]; !ok {
			order = append(order, s.op.Class)
		}
		byClass[s.op.Class] = append(byClass[s.op.Class], s.ms)
		total += s.ms
		if s.info.cache == "hit" {
			hits[s.op.Class]++
		}
	}
	sort.Strings(order)
	out := make([]classShare, len(order))
	for i, c := range order {
		sum := 0.0
		for _, v := range byClass[c] {
			sum += v
		}
		out[i] = classShare{Class: c, Ops: len(byClass[c]), MedianMS: percentile(byClass[c], 50), ShareTime: sum / total, Hits: hits[c]}
	}
	return out
}

// failedOps turns the errors of per-key checks (errs[i] belongs to keys[i],
// nil = passed) into one error per op that returned a failing key's result:
// every one of those ops handed out a wrong answer.
func failedOps(keys []string, errs []error, uses map[string]int) []error {
	var out []error
	for i, k := range keys {
		for n := 0; errs[i] != nil && n < uses[k]; n++ {
			out = append(out, fmt.Errorf("%s: %w", k, errs[i]))
		}
	}
	return out
}

// ---- lib_kdv target ----

// libTarget calls geostat.KDVDatasetCtx directly: one caller, no server.
type libTarget struct {
	d   *geostat.Dataset
	ver *verifier

	mu      sync.Mutex
	pending []pendingKDV   // first result of every key, checked in finish
	uses    map[string]int // ops executed per key
}

type pendingKDV struct {
	key  string
	spec kdvSpec
	ps   pixelSample
}

func newLibTarget(d *geostat.Dataset) *libTarget {
	return &libTarget{d: d, ver: newVerifier(), uses: make(map[string]int)}
}

func (t *libTarget) run(ctx context.Context, _ int, o *op, tr opTrace) (opInfo, error) {
	opt, err := o.KDV.options()
	if err != nil {
		return opInfo{}, err
	}
	sp := tr.start("geostat.KDVDatasetCtx")
	g, err := geostat.KDVDatasetCtx(ctx, t.d, opt)
	tr.end(sp, "method", o.KDV.Method)
	if err != nil {
		return opInfo{}, err
	}
	return opInfo{}, t.observe(o, g.Values)
}

// observe checks a repeat against the first result bit for bit and keeps a
// pixel sample of a first result for the reference check.
func (t *libTarget) observe(o *op, vals []float64) error {
	fresh, err := t.ver.observe(o.Key, gridDigest(vals))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.uses[o.Key]++
	if fresh {
		t.pending = append(t.pending, pendingKDV{key: o.Key, spec: *o.KDV, ps: samplePixels(int64(len(t.pending)), vals)})
	}
	return err
}

func (t *libTarget) finish(ctx context.Context) []error {
	errs := make([]error, len(t.pending))
	_ = parallel.ForCtx(ctx, len(t.pending), -1, func(i int) {
		_, errs[i] = checkAgainstRef(t.d, t.pending[i].spec, t.pending[i].ps)
	})
	keys := make([]string, len(t.pending))
	for i, p := range t.pending {
		keys[i] = p.key
	}
	return failedOps(keys, errs, t.uses)
}

func (t *libTarget) counters(context.Context) map[string]float64 { return nil }
func (t *libTarget) close()                                      {}
