package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeSummaryFile(t *testing.T, dir, name string, procs int, results ...benchResult) string {
	t.Helper()
	b, err := json.Marshal(benchSummary{GOMAXPROCS: procs, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareRowsJoin pins what geobench adds in front of the shared
// comparator (gate.Classify, tested in internal/load/gate): the join by
// experiment id — new run's order first, old-only experiments after, each
// side's presence and pass flag carried over.
func TestCompareRowsJoin(t *testing.T) {
	oldS := benchSummary{Results: []benchResult{
		{ID: "A", OK: true, ElapsedMS: 100},
		{ID: "GONE", OK: true, ElapsedMS: 1},
		{ID: "E", OK: false, ElapsedMS: 10},
	}}
	newS := benchSummary{Results: []benchResult{
		{ID: "E", OK: true, ElapsedMS: 12},
		{ID: "NEW", OK: true, ElapsedMS: 10},
		{ID: "A", OK: false, ElapsedMS: 130},
	}}
	rows := compareRows(oldS, newS)
	type flat struct {
		id                         string
		old, cur                   float64
		inOld, inNew, okOld, okNew bool
	}
	want := []flat{
		{"E", 10, 12, true, true, false, true},
		{"NEW", 0, 10, false, true, false, true},
		{"A", 100, 130, true, true, true, false},
		{"GONE", 1, 0, true, false, true, false},
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i, r := range rows {
		if got := (flat{r.ID, r.OldMS, r.NewMS, r.InOld, r.InNew, r.OKOld, r.OKNew}); got != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestCompareExitCodes pins the -compare contract the Makefile and CI
// depend on: 0 = no regression, 1 = regression, 2 = unusable input —
// which includes two summaries recorded at different GOMAXPROCS.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeSummaryFile(t, dir, "base.json", 1, benchResult{ID: "X", OK: true, ElapsedMS: 100})
	slow := writeSummaryFile(t, dir, "slow.json", 1, benchResult{ID: "X", OK: true, ElapsedMS: 200})
	broke := writeSummaryFile(t, dir, "broke.json", 1, benchResult{ID: "X", OK: false, ElapsedMS: 100})
	procs2 := writeSummaryFile(t, dir, "procs2.json", 2, benchResult{ID: "X", OK: true, ElapsedMS: 100})
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		old, cur string
		want     int
	}{
		{"self-compare passes", base, base, 0},
		{"slowdown", base, slow, 1},
		{"speed-up passes", slow, base, 0},
		{"stopped passing", base, broke, 1},
		{"gomaxprocs differ", base, procs2, 2},
		{"old file absent", filepath.Join(dir, "nope.json"), base, 2},
		{"new file not json", base, garbage, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runCompare(tc.old, tc.cur, 0.15, 25); got != tc.want {
				t.Fatalf("exit code = %d, want %d", got, tc.want)
			}
		})
	}
}
