package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"geostat/internal/lint/load"
)

func TestParseAllowDetail(t *testing.T) {
	tests := []struct {
		text   string
		names  []string
		reason string
		ok     bool
	}{
		{"//lint:allow seededrand seeded by the caller", []string{"seededrand"}, "seeded by the caller", true},
		{"//lint:allow floateq,seededrand shared justification", []string{"floateq", "seededrand"}, "shared justification", true},
		{"//lint:allow bodyclose", []string{"bodyclose"}, "", true},
		{"//lint:allow", nil, "", false},
		{"// lint:allow seededrand spaced prefix is not a directive", nil, "", false},
		{"// plain comment", nil, "", false},
	}
	for _, tt := range tests {
		names, reason, ok := parseAllowDetail(tt.text)
		if ok != tt.ok || reason != tt.reason || len(names) != len(tt.names) {
			t.Errorf("parseAllowDetail(%q) = (%v, %q, %v), want (%v, %q, %v)",
				tt.text, names, reason, ok, tt.names, tt.reason, tt.ok)
			continue
		}
		for i := range names {
			if names[i] != tt.names[i] {
				t.Errorf("parseAllowDetail(%q) names[%d] = %q, want %q", tt.text, i, names[i], tt.names[i])
			}
		}
	}
}

func report(byAnalyzer map[string]int, entries ...DebtEntry) *DebtReport {
	r := &DebtReport{ByAnalyzer: byAnalyzer, Entries: entries}
	for _, n := range byAnalyzer {
		r.Total += n
	}
	for _, e := range entries {
		if e.Reason == "" {
			r.Unjustified++
		}
	}
	return r
}

func TestDiffDebtGate(t *testing.T) {
	base := report(map[string]int{"seededrand": 2, "floateq": 1})

	t.Run("equal passes", func(t *testing.T) {
		table, ok := DiffDebt(base, report(map[string]int{"seededrand": 2, "floateq": 1}))
		if !ok {
			t.Fatalf("equal debt must pass:\n%s", table)
		}
	})
	t.Run("growth fails", func(t *testing.T) {
		table, ok := DiffDebt(base, report(map[string]int{"seededrand": 3, "floateq": 1}))
		if ok {
			t.Fatalf("growth must fail")
		}
		if !strings.Contains(table, "GREW") {
			t.Fatalf("table must flag the grown analyzer:\n%s", table)
		}
	})
	t.Run("new analyzer fails", func(t *testing.T) {
		_, ok := DiffDebt(base, report(map[string]int{"seededrand": 2, "floateq": 1, "bodyclose": 1}))
		if ok {
			t.Fatalf("a suppression for a previously debt-free analyzer must fail")
		}
	})
	t.Run("shrink passes with refresh note", func(t *testing.T) {
		table, ok := DiffDebt(base, report(map[string]int{"seededrand": 1, "floateq": 1}))
		if !ok {
			t.Fatalf("shrinking must pass:\n%s", table)
		}
		if !strings.Contains(table, "refresh the baseline") {
			t.Fatalf("shrink must ask for a baseline refresh:\n%s", table)
		}
	})
	t.Run("unjustified fails even within budget", func(t *testing.T) {
		cur := report(map[string]int{"seededrand": 2, "floateq": 1},
			DebtEntry{File: "a.go", Line: 3, Analyzers: []string{"seededrand"}})
		table, ok := DiffDebt(base, cur)
		if ok {
			t.Fatalf("a reason-less directive must fail regardless of budget")
		}
		if !strings.Contains(table, "no reason") {
			t.Fatalf("table must name the unjustified directive:\n%s", table)
		}
	})
}

// TestCollectDebtStaleAnalyzer: a directive naming an analyzer geolint
// does not run — a pass `go vet` owns, or a typo — suppresses nothing, so
// it counts as unjustified and fails the gate like a missing reason, even
// with a reason and within budget. Every analyzer geolint has deleted is
// checked by name, with a typo and next to a live control.
func TestCollectDebtStaleAnalyzer(t *testing.T) {
	stale := []string{"copylocks", "cancelleak", "unusedresult", "loopclosure", "purity", "maporderr", "detflow", "mustclose", "ctxflow", "maporder"}
	var src strings.Builder
	src.WriteString("package stale\n\n//lint:allow seededrand seeded by the caller\nvar Live = 1\n")
	for i, name := range stale {
		fmt.Fprintf(&src, "\n//lint:allow %s a reason that cannot help\nvar V%d = %d\n", name, i, i)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := load.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "fixture/stale")
	if err != nil {
		t.Fatal(err)
	}
	r := CollectDebt(l, []*load.Package{pkg})
	if r.Total != 1+len(stale) || r.Unjustified != len(stale) {
		t.Fatalf("total %d, unjustified %d; want %d and %d", r.Total, r.Unjustified, 1+len(stale), len(stale))
	}
	budget := map[string]int{"seededrand": 1}
	for _, name := range stale {
		budget[name] = 1
	}
	table, ok := DiffDebt(report(budget), r)
	if ok {
		t.Fatalf("directives naming no geolint analyzer must fail the gate:\n%s", table)
	}
	entry := func(t *testing.T, name string) DebtEntry {
		t.Helper()
		for _, e := range r.Entries {
			if len(e.Analyzers) == 1 && e.Analyzers[0] == name {
				return e
			}
		}
		t.Fatalf("no entry for //lint:allow %s in %+v", name, r.Entries)
		return DebtEntry{}
	}
	t.Run("seededrand", func(t *testing.T) {
		if p := entry(t, "seededrand").problem(); p != "" {
			t.Fatalf("a live analyzer with a reason must be justified, got %q", p)
		}
	})
	for _, name := range stale {
		t.Run(name, func(t *testing.T) {
			if p := entry(t, name).problem(); !strings.Contains(p, "not a geolint analyzer") {
				t.Fatalf("//lint:allow %s: problem %q, want it flagged as no geolint analyzer", name, p)
			}
			if q := strconv.Quote(name); !strings.Contains(table, q) {
				t.Errorf("table must name %s:\n%s", q, table)
			}
		})
	}
}

func TestDebtJSONRoundTrip(t *testing.T) {
	r := report(map[string]int{"seededrand": 1},
		DebtEntry{File: "internal/x/x.go", Line: 10, Analyzers: []string{"seededrand"}, Reason: "seeded by the caller"})
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDebt(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != r.Total || got.Unjustified != r.Unjustified ||
		got.ByAnalyzer["seededrand"] != 1 || len(got.Entries) != 1 ||
		!reflect.DeepEqual(got.Entries[0], r.Entries[0]) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if data[len(data)-1] != '\n' {
		t.Fatalf("baseline format must end with a newline")
	}
}
