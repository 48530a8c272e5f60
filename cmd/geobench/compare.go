package main

import (
	"encoding/json"
	"fmt"
	"os"

	"geostat/internal/load/gate"
)

// compareRows joins two -json run summaries by experiment id for
// gate.Classify: the new run's experiments in run order, then those only
// the old run had.
func compareRows(oldS, newS benchSummary) []gate.CompareRow {
	oldByID := make(map[string]benchResult, len(oldS.Results))
	for _, r := range oldS.Results {
		oldByID[r.ID] = r
	}
	seen := make(map[string]bool, len(newS.Results))
	rows := make([]gate.CompareRow, 0, len(newS.Results))
	for _, nr := range newS.Results {
		seen[nr.ID] = true
		or, ok := oldByID[nr.ID]
		rows = append(rows, gate.CompareRow{ID: nr.ID,
			OldMS: or.ElapsedMS, InOld: ok, OKOld: or.OK,
			NewMS: nr.ElapsedMS, InNew: true, OKNew: nr.OK})
	}
	for _, or := range oldS.Results {
		if !seen[or.ID] {
			rows = append(rows, gate.CompareRow{ID: or.ID, OldMS: or.ElapsedMS, InOld: true, OKOld: or.OK})
		}
	}
	return rows
}

// readSummary loads a -json run summary from disk.
func readSummary(path string) (benchSummary, error) {
	var s benchSummary
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runCompare implements `geobench -compare old.json new.json`: print the
// per-benchmark delta table and exit non-zero when anything regressed
// (see gate.Classify for the rule). Summaries recorded at different
// GOMAXPROCS are unusable input: the parallel experiments do more work
// with more procs, so their wall clocks do not compare.
func runCompare(oldPath, newPath string, threshold, minMS float64) int {
	oldS, err := readSummary(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geobench: %v\n", err)
		return 2
	}
	newS, err := readSummary(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geobench: %v\n", err)
		return 2
	}
	if oldS.GOMAXPROCS != newS.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "geobench: %s was recorded at GOMAXPROCS=%d, %s at GOMAXPROCS=%d: not comparable\n",
			oldPath, oldS.GOMAXPROCS, newPath, newS.GOMAXPROCS)
		return 2
	}
	rows := compareRows(oldS, newS)
	regressions := gate.Classify(rows, threshold, minMS)
	gate.WriteCompareTable(os.Stdout, "id", 4, rows)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "geobench: %d benchmark(s) regressed more than %.0f%%\n", regressions, threshold*100)
		return 1
	}
	fmt.Printf("no regressions beyond %.0f%% (floor %.0fms)\n", threshold*100, minMS)
	return 0
}
