// Command bench is the repository's benchmark: four seeded workloads that
// drive geostat through its public surfaces only (the root facade,
// serve.NewServer behind loopback listeners, shard.Coordinator), seven
// end-to-end metrics per workload, and a traced run with a per-layer probe
// suite. See README.md in this directory.
//
//	bash bench/run.sh --workload lib_kdv --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh -all      # every workload, untraced then traced
//	bash bench/run.sh -agree    # every workload twice; fails beyond the bounds
//	bash bench/run.sh -spread 10 # ten seeds per workload; quartile spread per metric
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// outDir is where traced runs and -all write their files, relative to the
// checkout root the benchmark is run from.
const outDir = "bench/out"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: lib_kdv, serve_tiles, serve_mixed or shard_kdv")
		seed     = flag.Int64("seed", 42, "seed of the datasets and the plan")
		seconds  = flag.Float64("seconds", float64(spec.RunSeconds), "length of the measured phase")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "datasets and probes at 1/10 size, plans at 1/20")
		all      = flag.Bool("all", false, "run every workload, untraced and traced, each in a fresh process")
		agree    = flag.Bool("agree", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
		spread   = flag.Int("spread", 0, "run every workload this many times, each with another seed, and print each end-to-end metric's quartile spread")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *spread > 0:
		err = runSpread(ctx, *seed, *seconds, *smoke, *spread)
	case *agree:
		err = runAgree(ctx, *seed, *seconds, *smoke)
	case *all:
		err = runAll(ctx, *seed, *seconds, *smoke)
	case *workload == "":
		err = errors.New("need -workload, -all, -agree or -spread")
	default:
		err = runOne(ctx, *workload, *seed, *seconds, *trace != 0, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload in this process. The result goes to
// standard output as the last line.
func runOne(ctx context.Context, workload string, seed int64, seconds float64, traced, smoke bool) error {
	prov := collectProvenance(seed)
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  smoke %v\n", workload, seed, seconds, traced, smoke)
	fmt.Printf("provenance: commit %s, %s, %q, nproc %d, GOMAXPROCS %d\n",
		prov.Commit, prov.GoVersion, prov.CPUModel, prov.NProc, prov.GOMAXPROCS)
	d := time.Duration(seconds * float64(time.Second))
	var (
		res  result
		defs []metricDef
		err  error
	)
	if traced {
		res, err = runTraced(ctx, workload, seed, d, sizesFor(smoke), prov, outDir)
		defs = spec.PerLayer
	} else {
		res, err = runUntraced(ctx, workload, seed, d, sizesFor(smoke))
		defs = spec.EndToEnd
	}
	if err != nil {
		return err
	}
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		note := ""
		if v.Value < 0 {
			note = "  (missing: the program no longer exposes it)"
		}
		fmt.Printf("  %-34s %14.6g %-6s%s\n", m.Name, v.Value, m.Unit, note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// countFailures prints the first few failures and returns how many ops
// failed, inline or in the deferred checks.
func countFailures(samples []sample, deferred []error) int {
	failed, shown := len(deferred), 0
	show := func(err error) {
		if shown++; shown <= 5 {
			fmt.Fprintln(os.Stderr, "bench: failed op:", err)
		}
	}
	for _, s := range samples {
		if s.err != nil {
			failed++
			show(fmt.Errorf("op %d (%s): %w", s.op.ID, s.op.Class, s.err))
		}
	}
	for _, err := range deferred {
		show(err)
	}
	return min(failed, len(samples))
}

const setupReps = 3 // set-ups per untraced run; setup_s is their median

func runUntraced(ctx context.Context, workload string, seed int64, d time.Duration, sz sizes) (result, error) {
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.t.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(ctx, workload, seed, sz); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.t.close()
	ph := measure(ctx, e.t, e.plan, callersOf[workload], d, math.MaxInt, nil)
	samples := ph.samples()
	n := len(samples)
	if n == 0 {
		return result{}, errors.New("no op completed")
	}
	failed := countFailures(samples, e.t.finish(ctx))
	per := n / len(ph.slices)
	fmt.Printf("measured %d ops in %.2f s, %d slices of ~%d ops (%d samples beyond each p95), plan digest %.12s\n",
		n, ph.wallS(), len(ph.slices), per, per-int(math.Ceil(0.95*float64(per))), e.plan.digest())
	fmt.Print("  ops/s by slice (calibration ms):")
	for _, s := range ph.slices {
		fmt.Printf(" %.4g (%.1f)", s.stats().opsPerS, s.calibMS)
	}
	fmt.Println()
	ss := ph.quietStats()
	fmt.Printf("  metrics are the median of the %d quiet slices\n", len(ss))
	printShares(samples)
	return result{
		Correct: failed == 0, Attempted: n, Failed: failed,
		Metrics: map[string]metricValue{
			"setup_s":         {median(setups), "s"},
			"ops_per_s":       {medianOf(ss, func(s sliceStats) float64 { return s.opsPerS }), "1/s"},
			"op_p50_ms":       {medianOf(ss, func(s sliceStats) float64 { return s.p50MS }), "ms"},
			"op_p95_ms":       {medianOf(ss, func(s sliceStats) float64 { return s.p95MS }), "ms"},
			"cpu_s_per_op":    {medianOf(ss, func(s sliceStats) float64 { return s.cpuSPerOp }), "s"},
			"alloc_mb_per_op": {medianOf(ss, func(s sliceStats) float64 { return s.allocMBPerOp }), "MB"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
		},
	}, nil
}

func printShares(samples []sample) {
	fmt.Println("  class                 ops   median ms   share of op time   cache hits")
	for _, c := range classShares(samples) {
		fmt.Printf("  %-18s %6d %11.3f %10.1f %% %18d\n", c.Class, c.Ops, c.MedianMS, 100*c.ShareTime, c.Hits)
	}
}

// runTraced measures the prefix of the plan that fits into a third of d
// untraced, replays exactly that prefix on a fresh set-up with the span
// recorder on, runs the probe suite and reports the per-layer metrics.
func runTraced(ctx context.Context, workload string, seed int64, d time.Duration, sz sizes, prov provenance, dir string) (result, error) {
	callers := callersOf[workload]
	base, err := setUp(ctx, workload, seed, sz)
	if err != nil {
		return result{}, err
	}
	plain := measure(ctx, base.t, base.plan, callers, d/3, math.MaxInt, nil)
	base.t.close()
	prefix := len(plain.samples())
	if prefix == 0 {
		return result{}, errors.New("no op completed")
	}

	e, err := setUp(ctx, workload, seed, sz)
	if err != nil {
		return result{}, err
	}
	defer e.t.close()
	rec := newRecorder()
	before := e.t.counters(ctx)
	ph := measure(ctx, e.t, e.plan, callers, 0, prefix, rec)
	after := e.t.counters(ctx)
	samples := ph.samples()
	n := len(samples)

	m := make(map[string]float64)
	m["bench.trace_overhead_ratio"] = ph.wallS() / plain.wallS()
	switch t := e.t.(type) {
	case *serveTarget:
		if err = serveLayer(ctx, t, rec, samples, before, after, m); err != nil {
			return result{}, err
		}
	case *shardTarget:
		if err = shardLayer(ctx, t, rec, samples, before, after, m); err != nil {
			return result{}, err
		}
	}
	failed := countFailures(samples, e.t.finish(ctx))
	m["bench.fail_ratio"] = float64(failed) / float64(n)
	m["bench.spans_total"] = float64(len(rec.spans))
	if err = runProbes(ctx, seed, sz, m); err != nil {
		return result{}, err
	}

	path, err := rec.write(dir, workload, prov)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("traced %d ops in %.2f s (untraced prefix: %.2f s), %d spans written to %s\n", n, ph.wallS(), plain.wallS(), len(rec.spans), path)
	printShares(samples)
	fmt.Println("  span                          count    total ms     self ms")
	for _, s := range summarize(rec.spans) {
		fmt.Printf("  %-26s %8d %11.1f %11.1f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	res := result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, def := range spec.PerLayer {
		res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit} // 0: the workload does not exercise the layer
	}
	return res, nil
}

// medianWhere is the median latency of the samples keep accepts (0: none).
func medianWhere(samples []sample, keep func(sample) bool) float64 {
	var ms []float64
	for _, s := range samples {
		if keep(s) {
			ms = append(ms, s.ms)
		}
	}
	return median(ms)
}

// setCounter stores a program counter's growth over the traced pass, or -1
// when the program no longer exposes the counter.
func setCounter(m map[string]float64, name string, before, after map[string]float64, counter string) {
	if v, ok := counterDelta(before, after, counter); ok {
		m[name] = v
	} else {
		m[name] = -1
	}
}

// ---- multi-run modes ----

// child runs one workload in a fresh process of this executable and
// returns its result line; the child's report is copied to stdout.
func child(ctx context.Context, workload string, seed int64, seconds float64, traced, smoke bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err = json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runAll runs every workload untraced and traced and stores the results
// with their provenance in bench/out/report.json.
func runAll(ctx context.Context, seed int64, seconds float64, smoke bool) error {
	type entry struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		Result   result `json:"result"`
	}
	var entries []entry
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := child(ctx, w.Name, seed, seconds, traced, smoke)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.Name, res.Failed, res.Attempted)
			}
			entries = append(entries, entry{w.Name, traced, res})
		}
	}
	data, err := json.MarshalIndent(struct {
		Provenance provenance `json:"provenance"`
		Runs       []entry    `json:"runs"`
	}{collectProvenance(seed), entries}, "", "  ")
	if err != nil {
		return err
	}
	if err = os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "report.json")
	fmt.Println("report written to", path)
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAgree runs every workload twice on the same code and compares each
// end-to-end metric of the second run with the first under its bound.
func runAgree(ctx context.Context, seed int64, seconds float64, smoke bool) error {
	var table bytes.Buffer
	bad := 0
	for _, w := range spec.Workloads {
		var runs [2]result
		for i := range runs {
			var err error
			if runs[i], err = child(ctx, w.Name, seed, seconds, false, smoke); err != nil {
				return err
			}
			if !runs[i].Correct {
				return fmt.Errorf("%s: %d of %d ops failed", w.Name, runs[i].Failed, runs[i].Attempted)
			}
		}
		for _, def := range spec.EndToEnd {
			a, b := runs[0].Metrics[def.Name].Value, runs[1].Metrics[def.Name].Value
			// Symmetric: neither run is the baseline, so the larger of the
			// two directions counts.
			diff := math.Max(worsening(def.Better, a, b), worsening(def.Better, b, a))
			verdict := "ok"
			if diff > def.Bound {
				verdict = "DIFFERS"
				bad++
			}
			fmt.Fprintf(&table, "  %-12s %-16s %12.5g %12.5g %-5s %+7.1f %%  (bound %2.0f %%)  %s\n",
				w.Name, def.Name, a, b, def.Unit, 100*diff, 100*def.Bound, verdict)
		}
	}
	fmt.Println("  workload     metric                  run 1        run 2 unit   difference")
	fmt.Print(table.String())
	if bad > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}

// runSpread runs every workload `runs` times, each with another seed, and
// prints for each end-to-end metric the median and the quartile spread the
// benchmark's bounds are derived from: a spread should stay below a third
// of its metric's bound.
func runSpread(ctx context.Context, seed int64, seconds float64, smoke bool, runs int) error {
	if runs < 2 {
		return errors.New("-spread needs at least 2 runs")
	}
	var table bytes.Buffer
	for _, w := range spec.Workloads {
		values := make(map[string][]float64)
		for i := 0; i < runs; i++ {
			res, err := child(ctx, w.Name, seed+int64(i), seconds, false, smoke)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", w.Name, seed+int64(i), res.Failed, res.Attempted)
			}
			for _, def := range spec.EndToEnd {
				values[def.Name] = append(values[def.Name], res.Metrics[def.Name].Value)
			}
		}
		for _, def := range spec.EndToEnd {
			fmt.Fprintf(&table, "  %-12s %-16s %12.5g %-6s %7.3f %7.2f\n",
				w.Name, def.Name, median(values[def.Name]), def.Unit, quartileSpread(values[def.Name]), def.Bound)
		}
	}
	fmt.Println("  workload     metric                 median unit    spread   bound")
	fmt.Print(table.String())
	return nil
}
