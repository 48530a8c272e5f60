// Package gate evaluates SLO assertions and baseline comparisons over
// load artifacts (internal/load.Artifact). It is the policy half of the
// load harness: geoload measures, geogate judges. The judgement is two
// independent passes —
//
//   - Evaluate: absolute SLO checks (min/max bounds on artifact
//     metrics) from a committed SLO file, for invariants like "p95
//     under a second", "no 5xx", "coalescing actually happened";
//   - Compare: relative drift of the per-tool latency quantiles against
//     a committed baseline artifact, judged by Classify — the
//     repository's one threshold and noise-floor rule.
//
// Exit-code contract (pinned by tests):
// 0 = all checks pass, 1 = at least one failure, 2 = unusable input.
package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"geostat/internal/load"
)

// Check is one absolute SLO assertion on an artifact metric selector
// (see load.Artifact.Metric for the selector grammar). Min and Max are
// pointers so "0" is a usable bound: nil means unbounded on that side.
type Check struct {
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// SLO is a committed set of checks (scenarios/*_slo.json).
type SLO struct {
	Checks []Check `json:"checks"`
}

// ParseSLO decodes an SLO file strictly and rejects degenerate checks
// (no metric, no bounds, NaN bounds) at load time so a typo fails the
// gate loudly instead of passing vacuously.
func ParseSLO(src []byte) (*SLO, error) {
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.DisallowUnknownFields()
	var s SLO
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parse SLO: %w", err)
	}
	if len(s.Checks) == 0 {
		return nil, fmt.Errorf("parse SLO: no checks")
	}
	for i, c := range s.Checks {
		if c.Metric == "" {
			return nil, fmt.Errorf("parse SLO: check %d has no metric", i)
		}
		if c.Min == nil && c.Max == nil {
			return nil, fmt.Errorf("parse SLO: check %d (%s) has neither min nor max", i, c.Metric)
		}
		if (c.Min != nil && math.IsNaN(*c.Min)) || (c.Max != nil && math.IsNaN(*c.Max)) {
			return nil, fmt.Errorf("parse SLO: check %d (%s) has a NaN bound", i, c.Metric)
		}
	}
	return &s, nil
}

// Result is the verdict on one SLO check.
type Result struct {
	Metric string
	Value  float64
	Status string // "ok", "FAIL", "MISSING"
	Detail string
}

// Evaluate runs every SLO check against the artifact and returns the
// verdicts plus the failure count. A selector that resolves to nothing
// is MISSING and counts as a failure — an SLO that silently stops
// measuring is worse than one that fails. A NaN value fails every
// bounded check explicitly (NaN compares false against any bound, so
// without this rule a poisoned metric would pass).
func Evaluate(a *load.Artifact, slo *SLO) ([]Result, int) {
	results := make([]Result, 0, len(slo.Checks))
	failures := 0
	for _, c := range slo.Checks {
		v, ok := a.Metric(c.Metric)
		r := Result{Metric: c.Metric, Value: v}
		switch {
		case !ok:
			r.Status = "MISSING"
			r.Detail = "selector matches nothing in the artifact"
			failures++
		case math.IsNaN(v):
			r.Status = "FAIL"
			r.Detail = "value is NaN"
			failures++
		case c.Min != nil && v < *c.Min:
			r.Status = "FAIL"
			r.Detail = fmt.Sprintf("%g < min %g", v, *c.Min)
			failures++
		case c.Max != nil && v > *c.Max:
			r.Status = "FAIL"
			r.Detail = fmt.Sprintf("%g > max %g", v, *c.Max)
			failures++
		default:
			r.Status = "ok"
			r.Detail = boundsString(c)
		}
		results = append(results, r)
	}
	return results, failures
}

func boundsString(c Check) string {
	switch {
	case c.Min != nil && c.Max != nil:
		return fmt.Sprintf("in [%g, %g]", *c.Min, *c.Max)
	case c.Min != nil:
		return fmt.Sprintf(">= %g", *c.Min)
	default:
		return fmt.Sprintf("<= %g", *c.Max)
	}
}

// CompareRow is one measurement on both sides of a baseline comparison.
// The caller fills the identity, the two values and the four flags;
// Classify fills Delta and Status.
type CompareRow struct {
	ID           string
	OldMS, NewMS float64
	InOld, InNew bool    // the side has this measurement at all
	OKOld, OKNew bool    // the side's run succeeded
	Delta        float64 // (new-old)/old when both sides exist and old > 0
	Status       string  // "ok", "faster", "REGRESSED", "BROKE", "fixed", "new", "removed"
}

// Classify is the repository's one drift rule, behind `geogate
// -baseline`. A row REGRESSED when it grew by
// more than threshold (fractional, strictly) and either side is at or
// above the minMS noise floor — below it wall clock is scheduler noise,
// not signal — and BROKE when it stopped succeeding; both count as
// regressions. Rows present on one side only are labelled "new" /
// "removed" and never fail. It sets Delta and Status in place and
// returns the regression count.
func Classify(rows []CompareRow, threshold, minMS float64) int {
	regressions := 0
	for i := range rows {
		r := &rows[i]
		if r.InOld && r.InNew && r.OldMS > 0 {
			r.Delta = (r.NewMS - r.OldMS) / r.OldMS
		}
		switch {
		case !r.InOld:
			r.Status = "new"
		case !r.InNew:
			r.Status = "removed"
		case r.OKOld && !r.OKNew:
			r.Status = "BROKE"
			regressions++
		case !r.OKOld && r.OKNew:
			r.Status = "fixed"
		case r.Delta > threshold && (r.OldMS >= minMS || r.NewMS >= minMS):
			r.Status = "REGRESSED"
			regressions++
		case r.Delta < -threshold:
			r.Status = "faster"
		default:
			r.Status = "ok"
		}
	}
	return regressions
}

// latencyFields are the per-tool quantiles a baseline comparison
// covers. Rates and counts are deliberately excluded: absolute bounds
// on those belong in the SLO file, where a drifting baseline cannot
// quietly ratchet them up.
var latencyFields = []string{"p50_ms", "p95_ms", "p99_ms"}

// Compare diffs the new artifact's per-tool latency quantiles against
// the baseline's under Classify. Returns rows sorted by metric name plus
// the regression count.
func Compare(baseline, current *load.Artifact, threshold, minMS float64) ([]CompareRow, int) {
	tools := make(map[string]bool)
	for t := range baseline.Tools {
		tools[t] = true
	}
	for t := range current.Tools {
		tools[t] = true
	}
	names := make([]string, 0, len(tools))
	for t := range tools {
		names = append(names, t) //lint:allow maporder sorted below
	}
	sort.Strings(names)

	var rows []CompareRow
	for _, tool := range names {
		_, inOld := baseline.Tools[tool]
		_, inNew := current.Tools[tool]
		for _, field := range latencyFields {
			row := CompareRow{ID: tool + "." + field, InOld: inOld, InNew: inNew, OKOld: true, OKNew: true}
			row.OldMS, _ = baseline.Metric(row.ID)
			row.NewMS, _ = current.Metric(row.ID)
			rows = append(rows, row)
		}
	}
	return rows, Classify(rows, threshold, minMS)
}

// WriteResults renders the SLO verdict table.
func WriteResults(w io.Writer, results []Result) {
	fmt.Fprintf(w, "%-32s %14s  %-8s %s\n", "metric", "value", "status", "detail")
	for _, r := range results {
		val := fmt.Sprintf("%.4g", r.Value)
		if r.Status == "MISSING" {
			val = "-"
		}
		fmt.Fprintf(w, "%-32s %14s  %-8s %s\n", r.Metric, val, r.Status, r.Detail)
	}
}

// WriteCompareTable renders classified rows as the delta table, under an
// id column with the given heading and width.
func WriteCompareTable(w io.Writer, idHeading string, idWidth int, rows []CompareRow) {
	fmt.Fprintf(w, "%-*s %12s %12s %8s  %s\n", idWidth, idHeading, "old ms", "new ms", "delta", "status")
	for _, r := range rows {
		old, cur, delta := "-", "-", "-"
		if r.InOld {
			old = fmt.Sprintf("%.1f", r.OldMS)
		}
		if r.InNew {
			cur = fmt.Sprintf("%.1f", r.NewMS)
		}
		if r.InOld && r.InNew && r.OldMS > 0 {
			delta = fmt.Sprintf("%+.1f%%", r.Delta*100)
		}
		fmt.Fprintf(w, "%-*s %12s %12s %8s  %s\n", idWidth, r.ID, old, cur, delta, r.Status)
	}
}

// ReadSLOFile loads and validates an SLO file.
func ReadSLOFile(path string) (*SLO, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSLO(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
