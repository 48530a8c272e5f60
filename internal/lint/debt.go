package lint

// Suppression debt: every //lint:allow directive in the module is a
// standing exception to an invariant, and exceptions rot — the code they
// excuse gets copied, the reason drifts out of date, and a suite with a
// hundred silent allows enforces nothing. geolint therefore treats the
// directive inventory as a budget: `geolint -debt` writes the inventory
// as JSON, the budget file (lint_debt.json) is committed, and CI diffs
// the two. A new suppression fails the build unless the budget file is
// updated in the same change — growth is possible, but only as an
// explicit, reviewable diff. Shrinking always passes (with a nudge to
// refresh the baseline), and an unjustified directive is an immediate
// failure regardless of the budget: one with no reason text is debt with
// no paper trail, and one naming an analyzer geolint does not run (a
// typo, or a pass `go vet` owns — vet cannot honour //lint:allow)
// suppresses nothing while looking like justified debt.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"geostat/internal/lint/load"
)

// DebtEntry is one //lint:allow directive found in production sources.
type DebtEntry struct {
	// File is the module-relative, slash-separated path.
	File string `json:"file"`
	Line int    `json:"line"`
	// Analyzers are the analyzer names the directive suppresses.
	Analyzers []string `json:"analyzers"`
	// Reason is the justification text after the analyzer list; empty
	// means unjustified.
	Reason string `json:"reason,omitempty"`
}

// DebtReport is the module's full suppression inventory.
type DebtReport struct {
	// Total counts directives (an entry naming two analyzers is one
	// directive but two budget units in ByAnalyzer).
	Total int `json:"total"`
	// Unjustified counts directives with no reason text or naming an
	// analyzer geolint does not run.
	Unjustified int `json:"unjustified"`
	// ByAnalyzer counts suppressions charged to each analyzer.
	ByAnalyzer map[string]int `json:"by_analyzer"`
	// Entries lists every directive, sorted by file then line.
	Entries []DebtEntry `json:"entries"`
}

// CollectDebt inventories every //lint:allow directive in pkgs. Test
// files and testdata fixtures never enter the loader, so the inventory
// covers exactly the code the lint gate covers.
func CollectDebt(l *load.Loader, pkgs []*load.Package) *DebtReport {
	r := &DebtReport{ByAnalyzer: map[string]int{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllowDetail(c.Text)
					if !ok {
						continue
					}
					pos := l.Fset.Position(c.Pos())
					rel, err := filepath.Rel(l.ModuleRoot, pos.Filename)
					if err != nil {
						rel = pos.Filename
					}
					e := DebtEntry{
						File:      filepath.ToSlash(rel),
						Line:      pos.Line,
						Analyzers: names,
						Reason:    reason,
					}
					r.Entries = append(r.Entries, e)
					r.Total++
					if e.problem() != "" {
						r.Unjustified++
					}
					for _, n := range names {
						r.ByAnalyzer[n]++
					}
				}
			}
		}
	}
	sort.Slice(r.Entries, func(i, j int) bool {
		if r.Entries[i].File != r.Entries[j].File {
			return r.Entries[i].File < r.Entries[j].File
		}
		return r.Entries[i].Line < r.Entries[j].Line
	})
	return r
}

// JSON renders the report in the committed-baseline format: indented,
// trailing newline, deterministic key order (encoding/json sorts maps).
func (r *DebtReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseDebt reads a report previously written by JSON.
func ParseDebt(data []byte) (*DebtReport, error) {
	var r DebtReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("debt baseline: %w", err)
	}
	if r.ByAnalyzer == nil {
		r.ByAnalyzer = map[string]int{}
	}
	return &r, nil
}

// DiffDebt compares the current inventory against the committed budget.
// It returns a human-readable delta table and whether the gate passes.
// The gate fails when any analyzer's suppression count grew beyond the
// budget, or when any current directive is unjustified. Shrinking passes
// but the table asks for a baseline refresh so the budget stays tight.
func DiffDebt(baseline, current *DebtReport) (string, bool) {
	names := map[string]bool{}
	for n := range baseline.ByAnalyzer {
		names[n] = true
	}
	for n := range current.ByAnalyzer {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var sb strings.Builder
	ok := true
	shrunk := false
	fmt.Fprintf(&sb, "%-16s %8s %8s %7s\n", "analyzer", "budget", "current", "delta")
	for _, n := range sorted {
		b, c := baseline.ByAnalyzer[n], current.ByAnalyzer[n]
		mark := ""
		switch {
		case c > b:
			mark = "  GREW: update lint_debt.json in this change to accept the new suppression"
			ok = false
		case c < b:
			shrunk = true
		}
		fmt.Fprintf(&sb, "%-16s %8d %8d %+7d%s\n", n, b, c, c-b, mark)
	}
	for _, e := range current.Entries {
		if p := e.problem(); p != "" {
			ok = false
			fmt.Fprintf(&sb, "%s:%d: //lint:allow %s %s\n", e.File, e.Line, strings.Join(e.Analyzers, ","), p)
		}
	}
	if ok && shrunk {
		sb.WriteString("debt shrank: refresh the baseline with `make lint-debt` to lock in the lower budget\n")
	}
	return sb.String(), ok
}

// problem says why e does not justify its suppression, or "" when it
// does.
func (e DebtEntry) problem() string {
	if e.Reason == "" {
		return "has no reason — every suppression must say why"
	}
	for _, n := range e.Analyzers {
		if _, ok := Lookup(n); !ok {
			return fmt.Sprintf("names %q, which is not a geolint analyzer (-list) — it suppresses nothing", n)
		}
	}
	return ""
}

// parseAllowDetail recognises "//lint:allow name1[,name2] reason..." and
// returns the allowed analyzer names plus the reason text (empty when the
// directive carries none). It is the one directive parser: filterAllowed
// and the debt inventory both use it.
func parseAllowDetail(text string) (names []string, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:allow")
	if !found {
		return nil, "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "", false
	}
	return strings.Split(fields[0], ","), strings.Join(fields[1:], " "), true
}
