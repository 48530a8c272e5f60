// Command geoload drives a live geostatd with a declarative load
// scenario and writes a structured artifact for cmd/geogate.
//
// Usage:
//
//	geoload -scenario scenarios/smoke.json -base http://127.0.0.1:8080 \
//	        [-out LOAD_smoke.json] [-timeout 5m] [-plan]
//
// The scenario file (JSON, see internal/load) declares
// client profiles — map-zoom sessions with zipf hot-key skew, cold
// dataset uploads, mixed-tool steady state, cancellation storms,
// lockstep hammers — and a seed. The request mix is a pure function of
// the scenario, so two runs of the same file replay the same session
// byte for byte; -plan prints that request plan without touching the
// network. The artifact (LOAD_<name>.json by default) carries per-tool
// p50/p95/p99 latency, error/499/503 rates, and cache/coalescing
// counter deltas scraped from /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geostat/internal/load"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "scenario file (JSON; required)")
		base         = flag.String("base", "http://127.0.0.1:8080", "base URL of the geostatd under test")
		out          = flag.String("out", "", "artifact path (default LOAD_<scenario-name>.json)")
		timeout      = flag.Duration("timeout", 5*time.Minute, "overall run deadline (0 disables)")
		planOnly     = flag.Bool("plan", false, "print the deterministic request plan and exit without running")
	)
	flag.Parse()
	if err := run(*scenarioPath, *base, *out, *timeout, *planOnly); err != nil {
		fmt.Fprintln(os.Stderr, "geoload:", err)
		os.Exit(1)
	}
}

func run(scenarioPath, base, out string, timeout time.Duration, planOnly bool) error {
	if scenarioPath == "" {
		return fmt.Errorf("-scenario is required")
	}
	src, err := os.ReadFile(scenarioPath)
	if err != nil {
		return err
	}
	sc, err := load.ParseScenario(src)
	if err != nil {
		return err
	}

	if planOnly {
		plans, perr := load.Plan(sc)
		if perr != nil {
			return perr
		}
		fmt.Print(load.FormatPlan(plans))
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	art, err := load.Run(ctx, sc, load.Options{BaseURL: base, Logf: log.Printf})
	if err != nil {
		return err
	}
	if out == "" {
		out = "LOAD_" + sc.Name + ".json"
	}
	if err := art.WriteFile(out); err != nil {
		return err
	}
	log.Printf("wrote %s (%d requests over %.0f ms)", out, art.Requests, art.DurationMS)
	return nil
}
