// Command geobench regenerates every table- and figure-shaped artifact of
// the paper (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// recorded outputs).
//
// Usage:
//
//	geobench                     # run every experiment
//	geobench -exp F2,C1          # run selected experiments
//	geobench -quick              # ~10x smaller datasets (smoke run)
//	geobench -dir out/           # also write PNG/CSV artifacts
//	geobench -workers 4          # bound parallelism (default: every core)
//	geobench -list               # list experiment ids
//
// Each experiment checks the shape of its claim and fails on a mismatch;
// geobench exits 1 when any selected experiment failed. The per-experiment
// wall clock it prints is for reading, not gating: bench/ measures
// performance.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"geostat/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "shrink dataset sizes ~10x")
		dir     = flag.String("dir", "", "directory for generated PNG/CSV artifacts")
		seed    = flag.Int64("seed", 42, "seed for all generators and simulations")
		workers = flag.Int("workers", 0, "parallelism for every parallel-capable call (0: every core, 1: serial)")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-3s %s\n", r.ID, r.Title)
		}
		return
	}

	var selected []experiments.Runner
	if *exp == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "geobench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, r)
		}
	}

	failed := 0
	for _, r := range selected {
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Title)
		cfg := &experiments.Config{Out: os.Stdout, Dir: *dir, Seed: *seed, Quick: *quick, Workers: *workers}
		start := time.Now()
		if err := r.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", r.ID, err)
			failed++
		}
		fmt.Printf("[%s done in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "geobench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
