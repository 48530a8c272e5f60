GO ?= go

# Everything runs under the race detector: the parallel engine owns all
# goroutines, so any package may fan out — including internal/serve,
# whose httptest suite drives concurrent cache and registry access.
RACE_PKGS = ./...

# Coverage ratchet: `make cover` fails if total statement coverage drops
# below this. Raise it when coverage improves; never lower it.
COVER_RATCHET = 80.0

.PHONY: check fmt-check vet build test race lint lint-debt debt-gate points-gate cover fuzz-smoke bench bench-smoke artifacts-check smoke shard-smoke shard-baseline

check: fmt-check vet build test race lint debt-gate points-gate

# Every Go file gofmt-clean. The analyzer fixtures under
# internal/lint/testdata are geolint's input, not code, and are exempt.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/'); \
	[ -z "$$out" ] || { echo "gofmt -l lists (run gofmt -w):"; echo "$$out"; exit 1; }; \
	echo "fmt-check OK"

# vet's unusedresult pass with its default function list plus the pure
# stdlib helpers whose discarded result is always a bug. geolint does not
# re-check what vet checks (copylocks, lostcancel, unusedresult).
VET_UNUSEDRESULT = context.WithCancel,context.WithDeadline,context.WithTimeout,context.WithValue,errors.New,fmt.Errorf,fmt.Sprint,fmt.Sprintf,slices.Clip,slices.Compact,slices.CompactFunc,slices.Delete,slices.DeleteFunc,slices.Grow,slices.Insert,slices.Replace,sort.Reverse,$\
fmt.Sprintln,errors.Join,errors.Unwrap,errors.Is,errors.As,$\
strings.ToUpper,strings.ToLower,strings.TrimSpace,strings.Trim,strings.TrimPrefix,strings.TrimSuffix,strings.Repeat,strings.Replace,strings.ReplaceAll,strings.Join,strings.Split,strings.Fields,strings.Contains,strings.HasPrefix,strings.HasSuffix,$\
strconv.Itoa,strconv.Atoi,strconv.FormatFloat,strconv.ParseFloat,strconv.Quote,sort.SliceIsSorted,sort.IsSorted,$\
maps.Keys,maps.Values,maps.Clone,slices.Clone,slices.Sorted,slices.Contains,slices.Index,slices.Max,slices.Min

vet:
	$(GO) vet -unusedresult.funcs=$(VET_UNUSEDRESULT) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# geolint: the project-specific analyzers (see internal/lint). One
# invocation typechecks the whole module with cross-package fact
# propagation and serves both outputs: human-readable findings on
# stdout (the CI log) and a SARIF 2.1.0 report at artifacts/geolint.sarif
# (the code-scanning upload). Exits non-zero on any finding. Suppress
# individual findings with //lint:allow <analyzer> <reason>.
lint:
	@mkdir -p artifacts
	$(GO) run ./cmd/geolint -sarif -o artifacts/geolint.sarif ./...

# Suppression-debt budget. lint-debt regenerates the committed baseline
# (run it when a review accepts a new //lint:allow or when debt shrinks);
# debt-gate is the CI check: fail when the current inventory exceeds the
# budget for any analyzer, or any directive lacks a reason or names an
# analyzer geolint does not run. The fresh report lands in artifacts/
# next to the SARIF for upload.
lint-debt:
	$(GO) run ./cmd/geolint -debt -o lint_debt.json
	@echo "wrote lint_debt.json"

debt-gate:
	@mkdir -p artifacts
	$(GO) run ./cmd/geolint -debt -debt-baseline lint_debt.json -o artifacts/lint_debt.json

# Dataset.Points() copies every coordinate into a fresh []geom.Point;
# production code reads d.Columns() or d.Point(i). The gate is absolute:
# no non-test .Points() call in the root package or under internal/ or
# cmd/, with internal/experiments excepted. It also holds the facade to
# *Dataset: an exported root function may take []Point only if it is in
# POINTS_ALLOW.
#
# POINTS_ALLOW is the constructors plus the eight []Point functions bench/
# calls. It shrinks when a benchmark change re-points bench/ at their
# *Dataset forms.
POINTS_ALLOW = FromPoints NewDataset NewBBox \
	KFunction KFunctionKDTree KFunctionBallTree KFunctionRTree KFunctionCurveCtx KFunctionPlot \
	KNNWeightsWorkers SilvermanBandwidth
# POINTS_AWK prints each exported top-level function whose parameter list
# (up to the parenthesis closing it, across lines) names []Point and whose
# name is not in allow.
POINTS_AWK = /^func [A-Z]/ { \
	sig = $$0; name = $$2; sub(/\(.*/, "", name); \
	while (sig !~ /\{/ && (getline line) > 0) sig = sig " " line; \
	sub(/^func [A-Za-z0-9_]+/, "", sig); d = 0; params = ""; \
	for (i = 1; i <= length(sig); i++) { \
		c = substr(sig, i, 1); if (c == "(") d++; if (c == ")" && --d == 0) break; params = params c \
	} \
	if (params ~ /\[\](geom\.)?Point/ && index(allow, " " name " ") == 0) print FILENAME ": " name \
}
ROOT_GO = $$(ls *.go | grep -v '_test\.go$$')

points-gate:
	@out=$$( { grep -rn '\.Points()' --include='*.go' internal cmd; grep -Hn '\.Points()' $(ROOT_GO); } | \
	  grep -v '_test\.go:' | grep -v '^internal/experiments/'); \
	[ -z "$$out" ] || { echo "Dataset.Points() in production code (read d.Columns()):"; echo "$$out"; exit 1; }; \
	out=$$(awk -v allow=" $(POINTS_ALLOW) " '$(POINTS_AWK)' $(ROOT_GO)); \
	[ -z "$$out" ] || { echo "exported facade function takes []Point (take *Dataset, or see POINTS_ALLOW):"; echo "$$out"; exit 1; }; \
	echo "points-gate OK"

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (ratchet: $(COVER_RATCHET)%)"; \
	awk -v t=$$total -v r=$(COVER_RATCHET) 'BEGIN { exit t+0 < r+0 ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the ratchet $(COVER_RATCHET)%"; exit 1; }

# Short fuzz runs of every parser, seeded from the committed corpora
# under */testdata/fuzz, of the kd-tree kNN query against brute force
# (seeded in the test), of the result cache's index / heap invariants
# under arbitrary Get / Put / re-upload sequences, and of the Gaussian /
# exponential KDV loops that skip absorbed terms against the plain loop,
# of naive's finite-kernel row scatter against the pixel-major gather, of
# the cosine kernel's math.cos replica against math.Cos, of the sweep
# line's written-out update and pixel sum of each degree against the
# generic degree loops, bit for bit, of the kernel footprint's rows and
# columns against the kernel test, and of geolint's obligation walker over
# arbitrary function bodies (it must end, keep a deferred release as a
# discharge, and under a held-region rule keep the region open after it).
# ~10s per target.
fuzz-smoke:
	$(GO) test ./internal/geojson -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/dataset -run '^$$' -fuzz FuzzReadCSV -fuzztime 10s
	$(GO) test ./internal/network -run '^$$' -fuzz FuzzReadEdgeCSV -fuzztime 10s
	$(GO) test ./internal/index/kdtree -run '^$$' -fuzz FuzzKNearestBruteForce -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzCacheOps -fuzztime 10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzChunkEvalAbsorbed -fuzztime 10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzNaiveScatter -fuzztime 10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzCosQuarter -fuzztime 10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzSweepKernels -fuzztime 10s
	$(GO) test ./internal/geom -run '^$$' -fuzz FuzzFootprint -fuzztime 10s
	$(GO) test ./internal/lint -run '^$$' -fuzz FuzzObligationWalk -fuzztime 10s

bench:
	$(GO) test -run NONE -bench . -benchmem .

# bench/ is a nested module (its own go.mod, `replace geostat => ../`), so
# `go test ./...` never enters it: vet and test it here, so a facade change
# that breaks the benchmark's build fails CI instead of the perf pipeline.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The committed figure outputs under artifacts/ are geobench's F1, F4 and
# F5 files, byte-identical at any worker count: regenerate them into a temp
# dir and require each to match. After an intended change to a figure,
# regenerate with `go run ./cmd/geobench -exp F1,F4,F5 -dir artifacts`.
ARTIFACTS = f1_heatmap.png f4_slice_t15.png f4_slice_t45.png f5_hotspot_map.png f5_events.csv

artifacts-check:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) run ./cmd/geobench -exp F1,F4,F5 -dir $$tmp >/dev/null || exit 1; \
	for f in $(ARTIFACTS); do \
	  cmp artifacts/$$f $$tmp/$$f || { echo "artifacts/$$f differs from a fresh geobench run"; exit 1; }; \
	done; \
	echo "artifacts-check OK"

# End-to-end smoke: boot geostatd, upload a small CSV and a small GeoJSON
# body through the real listener (each must echo its point count), drive
# one KDV request, check that a format=f64 KDV body (the shard tile hop's
# wire format) is its header line, "\n" and 8 bytes a value, and assert
# the observability surfaces answer with well-formed output (Prometheus
# text at /metrics with both uploads in the upload latency series, a span
# tree at /debug/trace/last).
SMOKE_CSV = x,y,value\n1,2,10\n3,4,20\n5,6,30\n
SMOKE_GEOJSON = {"type":"FeatureCollection","features":[$\
{"type":"Feature","geometry":{"type":"Point","coordinates":[1,2]},"properties":{"value":10}},$\
{"type":"Feature","geometry":{"type":"Point","coordinates":[3,4]},"properties":{"value":20}}]}

smoke:
	$(GO) build -o /tmp/geostatd.smoke ./cmd/geostatd
	@/tmp/geostatd.smoke -addr 127.0.0.1:18091 & pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	ok=0; for i in $$(seq 1 50); do \
	  curl -fs http://127.0.0.1:18091/healthz >/dev/null 2>&1 && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok = 1 ] || { echo "geostatd did not come up"; exit 1; }; \
	printf '$(SMOKE_CSV)' | curl -fs --data-binary @- http://127.0.0.1:18091/v1/datasets/smoke_csv | grep -q '"n":3' && \
	printf '%s' '$(SMOKE_GEOJSON)' | curl -fs --data-binary @- http://127.0.0.1:18091/v1/datasets/smoke_geojson | grep -q '"n":2' && \
	curl -fs -X POST 'http://127.0.0.1:18091/v1/generate?name=smoke&kind=clusters&n=500&seed=1' >/dev/null && \
	curl -fs 'http://127.0.0.1:18091/v1/kdv?dataset=smoke&bandwidth=8&width=32&height=32' >/dev/null && \
	curl -fs -o /tmp/smoke.f64 'http://127.0.0.1:18091/v1/kdv?dataset=smoke&bandwidth=8&width=32&height=24&format=f64' && \
	[ $$(wc -c < /tmp/smoke.f64) -eq $$(( $$(head -n 1 /tmp/smoke.f64 | wc -c) + 8*32*24 )) ] && \
	curl -fs http://127.0.0.1:18091/metrics | grep -q '# TYPE geostatd_request_seconds histogram' && \
	curl -fs http://127.0.0.1:18091/metrics | grep -q 'geostatd_requests_total{tool="kdv"} 2' && \
	curl -fs http://127.0.0.1:18091/metrics | grep -q 'geostatd_request_seconds_count{tool="upload"} 2' && \
	curl -fs http://127.0.0.1:18091/debug/trace/last | grep -q 'kdv.compute' && \
	echo "smoke OK"

# Sharded-execution smoke: boot TWO real geostatd workers, fan a KDV
# computation out over them with geoshard, and assert (a) the merged
# raster is byte-identical to the committed digest — the bit-for-bit
# determinism claim, end to end over real HTTP — and (b) the workers'
# /metrics show tile-windowed requests were actually served
# (shard_tiles_total > 0, i.e. the run really was sharded). A K-function
# leg then plots 10 bands with 19 simulations over the same workers and
# asserts (c) the plot is byte-identical to its committed digest and (d)
# the workers served it as ONE /v1/kfunction request, summed over both
# (geostatd_requests_total{tool="kfunction"} = 1).
SHARD_WORKERS = http://127.0.0.1:18094,http://127.0.0.1:18095
define SHARD_RUN
	/tmp/geogen.shard -kind clusters -n 2000 -seed 7 -out /tmp/shard_events.csv && \
	/tmp/geoshard -workers $(SHARD_WORKERS) -in /tmp/shard_events.csv \
	  -name smoke -tool kdv -kernel quartic -bandwidth 8 -width 64 -height 64 \
	  -bbox 0,0,100,100 -tile 4x4 -out /tmp/shard_out.json && \
	/tmp/geoshard -workers $(SHARD_WORKERS) -in /tmp/shard_events.csv \
	  -name smoke -tool kfunction -smax 25 -steps 10 -sims 19 -seed 1 \
	  -out /tmp/shard_kfunc_out.json
endef

shard-smoke:
	$(GO) build -o /tmp/geostatd.shard ./cmd/geostatd
	$(GO) build -o /tmp/geoshard ./cmd/geoshard
	$(GO) build -o /tmp/geogen.shard ./cmd/geogen
	@/tmp/geostatd.shard -addr 127.0.0.1:18094 & p1=$$!; \
	/tmp/geostatd.shard -addr 127.0.0.1:18095 & p2=$$!; \
	trap "kill $$p1 $$p2 2>/dev/null" EXIT; \
	ok=0; for i in $$(seq 1 50); do \
	  curl -fs http://127.0.0.1:18094/healthz >/dev/null 2>&1 && \
	  curl -fs http://127.0.0.1:18095/healthz >/dev/null 2>&1 && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok = 1 ] || { echo "workers did not come up"; exit 1; }; \
	$(SHARD_RUN) || exit 1; \
	sum=$$(sha256sum /tmp/shard_out.json | awk '{print $$1}'); \
	want=$$(cat scenarios/shard_smoke.sha256); \
	[ "$$sum" = "$$want" ] || { echo "merged output digest $$sum != committed $$want"; exit 1; }; \
	t1=$$(curl -fs http://127.0.0.1:18094/metrics | awk '/^shard_tiles_total/ {print $$2}'); \
	t2=$$(curl -fs http://127.0.0.1:18095/metrics | awk '/^shard_tiles_total/ {print $$2}'); \
	[ $$(( $${t1:-0} + $${t2:-0} )) -gt 0 ] || { echo "workers served no tile windows"; exit 1; }; \
	ksum=$$(sha256sum /tmp/shard_kfunc_out.json | awk '{print $$1}'); \
	kwant=$$(cat scenarios/shard_kfunc_smoke.sha256); \
	[ "$$ksum" = "$$kwant" ] || { echo "K-function output digest $$ksum != committed $$kwant"; exit 1; }; \
	k1=$$(curl -fs http://127.0.0.1:18094/metrics | awk '/^geostatd_requests_total\{tool="kfunction"\}/ {print $$2}'); \
	k2=$$(curl -fs http://127.0.0.1:18095/metrics | awk '/^geostatd_requests_total\{tool="kfunction"\}/ {print $$2}'); \
	[ $$(( $${k1:-0} + $${k2:-0} )) -eq 1 ] || { echo "K-function plot took $${k1:-0}+$${k2:-0} worker requests, want 1"; exit 1; }; \
	echo "shard-smoke OK (tiles served: $${t1:-0}+$${t2:-0}; K-function requests: $${k1:-0}+$${k2:-0})"

# Regenerate the committed shard-smoke digests (the KDV raster's and the
# K-function plot's) after an intentional change to an output format or
# the generator.
shard-baseline:
	$(GO) build -o /tmp/geostatd.shard ./cmd/geostatd
	$(GO) build -o /tmp/geoshard ./cmd/geoshard
	$(GO) build -o /tmp/geogen.shard ./cmd/geogen
	@/tmp/geostatd.shard -addr 127.0.0.1:18094 & p1=$$!; \
	/tmp/geostatd.shard -addr 127.0.0.1:18095 & p2=$$!; \
	trap "kill $$p1 $$p2 2>/dev/null" EXIT; \
	ok=0; for i in $$(seq 1 50); do \
	  curl -fs http://127.0.0.1:18094/healthz >/dev/null 2>&1 && \
	  curl -fs http://127.0.0.1:18095/healthz >/dev/null 2>&1 && { ok=1; break; }; sleep 0.1; \
	done; \
	[ $$ok = 1 ] || { echo "workers did not come up"; exit 1; }; \
	$(SHARD_RUN) || exit 1; \
	sha256sum /tmp/shard_out.json | awk '{print $$1}' > scenarios/shard_smoke.sha256 && \
	sha256sum /tmp/shard_kfunc_out.json | awk '{print $$1}' > scenarios/shard_kfunc_smoke.sha256 && \
	echo "wrote scenarios/shard_smoke.sha256 scenarios/shard_kfunc_smoke.sha256"
