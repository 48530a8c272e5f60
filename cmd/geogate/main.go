// Command geogate judges a geoload artifact against SLO thresholds and
// a committed baseline artifact.
//
// Usage:
//
//	geogate -artifact LOAD_smoke.json [-slo scenarios/smoke_slo.json]
//	        [-baseline LOAD_baseline.json] [-threshold 0.5] [-min-ms 50]
//
// At least one of -slo / -baseline is required. The SLO pass asserts
// absolute bounds (min/max per artifact metric); the baseline pass
// flags per-tool latency quantiles that grew by more than -threshold
// (fractional) when either side is above the -min-ms noise floor —
// gate.Classify, the repository's one drift rule.
//
// Exit codes (pinned by tests): 0 = pass, 1 = at least one SLO failure
// or baseline regression, 2 = unusable input (missing file, bad JSON).
package main

import (
	"flag"
	"fmt"
	"os"

	"geostat/internal/load"
	"geostat/internal/load/gate"
)

func main() {
	var (
		artifactPath = flag.String("artifact", "", "geoload artifact to judge (required)")
		sloPath      = flag.String("slo", "", "SLO checks file (JSON)")
		baselinePath = flag.String("baseline", "", "baseline artifact to compare against")
		threshold    = flag.Float64("threshold", 0.5, "fractional latency growth tolerated vs baseline")
		minMS        = flag.Float64("min-ms", 50, "noise floor: quantiles where both sides are below this never regress")
	)
	flag.Parse()
	os.Exit(run(*artifactPath, *sloPath, *baselinePath, *threshold, *minMS))
}

func run(artifactPath, sloPath, baselinePath string, threshold, minMS float64) int {
	if artifactPath == "" {
		fmt.Fprintln(os.Stderr, "geogate: -artifact is required")
		return 2
	}
	if sloPath == "" && baselinePath == "" {
		fmt.Fprintln(os.Stderr, "geogate: at least one of -slo / -baseline is required")
		return 2
	}
	art, err := load.ReadArtifact(artifactPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geogate: %v\n", err)
		return 2
	}

	failures := 0
	if sloPath != "" {
		slo, err := gate.ReadSLOFile(sloPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geogate: %v\n", err)
			return 2
		}
		results, failed := gate.Evaluate(art, slo)
		fmt.Printf("SLO checks (%s):\n", sloPath)
		gate.WriteResults(os.Stdout, results)
		failures += failed
	}
	if baselinePath != "" {
		base, err := load.ReadArtifact(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geogate: %v\n", err)
			return 2
		}
		rows, regressed := gate.Compare(base, art, threshold, minMS)
		fmt.Printf("baseline comparison (%s, threshold %.0f%%, floor %.0fms):\n",
			baselinePath, threshold*100, minMS)
		gate.WriteCompareTable(os.Stdout, "metric", 32, rows)
		failures += regressed
	}

	if failures > 0 {
		fmt.Fprintf(os.Stderr, "geogate: %d check(s) failed\n", failures)
		return 1
	}
	fmt.Println("geogate: all checks passed")
	return 0
}
