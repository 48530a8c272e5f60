package main

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkSpec is the content of BENCHMARK.json; TestBenchmarkJSON keeps
// the committed file equal to it.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var spec = benchmarkSpec{
	Command:    []string{"bash", "bench/run.sh"},
	Paths:      []string{"bench"},
	RunSeconds: 20,
	Workloads: []workloadDef{
		{"lib_kdv", "library, one caller: kde/kernel/parallel/dataset do all the work and serve/shard none, so an algorithm or kernel-loop change shows here and a cache or encode change must not"},
		{"serve_tiles", "serving, read-mostly, 2 clients: zipf tile pyramid with hits, evictions and misses; HTTP + cache + encode dominate and kde runs only on misses"},
		{"serve_mixed", "serving, writes beside reads, 2 clients: uploads and invalidation beside K-function, Moran, IDW and Silverman KDV, so a read-path gain paid for by the write path shows"},
		{"shard_kdv", "distributed, one caller: plan/upload/dispatch/merge and the windowed naive tile evaluator; cold, warm and hot ops over two workers"},
	},
	EndToEnd: []metricDef{
		{"setup_s", "s", "lower", 0.25},
		{"ops_per_s", "1/s", "higher", 0.25},
		{"op_p50_ms", "ms", "lower", 0.25},
		{"op_p95_ms", "ms", "lower", 0.25},
		{"cpu_s_per_op", "s", "lower", 0.25},
		{"alloc_mb_per_op", "MB", "lower", 0.15},
		{"peak_rss_mb", "MB", "lower", 0.25},
	},
	PerLayer: perLayerDefs(),
}

func perLayerDefs() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "kernel.eval_ns.quartic", "kernel.eval_ns.triangular", "kernel.eval_ns.gaussian")
	add("ms", "lower", "kde.sweep_ms", "kde.cutoff_ms", "kde.naive_finite_ms", "kde.naive_gauss_ms",
		"kde.bound_approx_ms", "kde.sampled_ms", "kde.window_ms")
	add("G/s", "higher", "kde.naive_gpairs_per_s")
	add("ratio", "lower", "kde.approx_max_rel_err", "kde.sampled_err_frac")
	add("ns", "lower", "parallel.dispatch_ns_per_chunk")
	add("ratio", "higher", "parallel.speedup.sweep", "parallel.speedup.cutoff", "parallel.speedup.naive", "parallel.speedup.kplot")
	add("ms", "lower", "parallel.serial_ms.sweep", "parallel.serial_ms.cutoff", "parallel.serial_ms.naive", "parallel.serial_ms.kplot")
	add("ms", "lower", "dataset.generate_ms", "dataset.points_copy_ms", "dataset.digest_ms")
	add("MB/s", "higher", "dataset.csv_read_mb_per_s", "dataset.csv_write_mb_per_s", "geojson.parse_mb_per_s")
	add("ms", "lower", "raster.png_ms", "kfunc.plot_ms", "kfunc.curve_ms", "kfunc.count_ms.grid", "kfunc.count_ms.kdtree",
		"kfunc.count_ms.balltree", "kfunc.count_ms.rtree", "idw.knn_ms", "idw.naive_ms", "weights.knn_ms", "moran.perm_ms")
	add("ms", "lower", "serve.hit_ms", "serve.miss_ms")
	add("ratio", "higher", "serve.hit_ratio")
	add("count", "lower", "serve.compute_total", "serve.coalesced_total", "serve.rejected_total")
	add("MB", "lower", "serve.bytes_out_mb")
	add("us", "lower", "serve.handler_hit_us")
	add("ns", "lower", "serve.cache_get_ns", "serve.cache_put_ns")
	add("ms", "lower", "serve.encode_png_ms", "serve.encode_json_ms", "serve.overhead_ms",
		"serve.upload_csv_ms", "serve.upload_geojson_ms")
	add("ratio", "lower", "serve.replay_compute_share")
	add("ms", "lower", "shard.plan_ms", "shard.cold_ms", "shard.warm_ms", "shard.hot_ms")
	add("count", "lower", "shard.tiles_total", "shard.uploads_total", "shard.retries_total", "shard.failovers_total")
	add("MB", "lower", "shard.upload_mb")
	add("ratio", "lower", "shard.vs_single_ratio", "obs.kdv_overhead_ratio", "bench.trace_overhead_ratio", "bench.fail_ratio")
	add("count", "higher", "bench.spans_total")
	return out
}
