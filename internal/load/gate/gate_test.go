package gate

import (
	"math"
	"strings"
	"testing"

	"geostat/internal/load"
)

func f(v float64) *float64 { return &v }

// artifactFixture is a healthy artifact the tests perturb.
func artifactFixture() *load.Artifact {
	return &load.Artifact{
		Scenario: "fixture",
		Seed:     1,
		Clients:  4,
		Requests: 40,
		Tools: map[string]*load.ToolStats{
			"kdv": {
				Count:  30,
				Status: map[string]int{"200": 30},
				P50MS:  20, P95MS: 80, P99MS: 120, MaxMS: 150,
			},
			"upload": {
				Count:  10,
				Status: map[string]int{"200": 10},
				P50MS:  5, P95MS: 9, P99MS: 12, MaxMS: 12,
			},
		},
		Server: load.ServerStats{
			CacheHits: 10, CacheMisses: 20, CacheHitRate: 10.0 / 30,
			ComputeTotal: 15, SingleflightShared: 5,
		},
	}
}

func TestEvaluateTable(t *testing.T) {
	cases := []struct {
		name       string
		check      Check
		mutate     func(a *load.Artifact)
		wantStatus string
	}{
		{"max holds", Check{Metric: "kdv.p95_ms", Max: f(100)}, nil, "ok"},
		{"max exceeded", Check{Metric: "kdv.p95_ms", Max: f(50)}, nil, "FAIL"},
		{"min holds", Check{Metric: "server.singleflight_shared", Min: f(1)}, nil, "ok"},
		{"min violated", Check{Metric: "server.singleflight_shared", Min: f(6)}, nil, "FAIL"},
		{"zero max usable", Check{Metric: "kdv.error_rate", Max: f(0)}, nil, "ok"},
		{"zero max violated", Check{Metric: "kdv.error_rate", Max: f(0)},
			func(a *load.Artifact) { a.Tools["kdv"].ErrorRate = 0.1 }, "FAIL"},
		{"boundary is inclusive", Check{Metric: "kdv.p95_ms", Max: f(80)}, nil, "ok"},
		{"missing tool", Check{Metric: "nosuch.p95_ms", Max: f(1)}, nil, "MISSING"},
		{"missing field", Check{Metric: "kdv.p77_ms", Max: f(1)}, nil, "MISSING"},
		{"status count selector", Check{Metric: "kdv.200", Min: f(30)}, nil, "ok"},
		{"nan value fails max", Check{Metric: "kdv.p95_ms", Max: f(100)},
			func(a *load.Artifact) { a.Tools["kdv"].P95MS = math.NaN() }, "FAIL"},
		{"nan value fails min", Check{Metric: "kdv.p95_ms", Min: f(0)},
			func(a *load.Artifact) { a.Tools["kdv"].P95MS = math.NaN() }, "FAIL"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := artifactFixture()
			if tc.mutate != nil {
				tc.mutate(a)
			}
			results, failures := Evaluate(a, &SLO{Checks: []Check{tc.check}})
			if len(results) != 1 {
				t.Fatalf("got %d results, want 1", len(results))
			}
			if results[0].Status != tc.wantStatus {
				t.Fatalf("status = %s (%s), want %s", results[0].Status, results[0].Detail, tc.wantStatus)
			}
			wantFail := 0
			if tc.wantStatus != "ok" {
				wantFail = 1
			}
			if failures != wantFail {
				t.Fatalf("failures = %d, want %d", failures, wantFail)
			}
		})
	}
}

func TestParseSLORejectsDegenerateFiles(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty checks", `{"checks": []}`, "no checks"},
		{"no metric", `{"checks": [{"max": 1}]}`, "no metric"},
		{"no bounds", `{"checks": [{"metric": "kdv.p95_ms"}]}`, "neither min nor max"},
		{"unknown field", `{"checks": [{"metric": "a.b", "max": 1, "treshold": 2}]}`, "treshold"},
		{"not json", `checks:`, "parse SLO"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSLO([]byte(tc.src))
			if err == nil {
				t.Fatal("ParseSLO succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestClassify is the drift rule's one table: every status, both CLIs'
// cases (geobench's BROKE / fixed / floor / boundary rows moved here with
// the comparator), one row each.
func TestClassify(t *testing.T) {
	both := CompareRow{InOld: true, InNew: true, OKOld: true, OKNew: true}
	row := func(old, cur float64, edit func(*CompareRow)) CompareRow {
		r := both
		r.OldMS, r.NewMS = old, cur
		if edit != nil {
			edit(&r)
		}
		return r
	}
	cases := []struct {
		name       string
		row        CompareRow
		want       string
		regression bool
	}{
		{"identical", row(100, 100, nil), "ok", false},
		{"+30% above the floor", row(100, 130, nil), "REGRESSED", true},
		{"-25%", row(200, 150, nil), "faster", false},
		{"+80% with both sides under the floor", row(5, 9, nil), "ok", false},
		{"old under the floor, new crossed it", row(10, 40, nil), "REGRESSED", true},
		{"new under the floor, old above it", row(30, 10, nil), "faster", false},
		{"delta exactly at the threshold", row(100, 115, nil), "ok", false},
		{"delta just above the threshold", row(100, 115.2, nil), "REGRESSED", true},
		{"old is zero: no delta to judge", row(0, 500, nil), "ok", false},
		{"stopped passing", row(50, 48, func(r *CompareRow) { r.OKNew = false }), "BROKE", true},
		{"started passing", row(10, 12, func(r *CompareRow) { r.OKOld = false }), "fixed", false},
		{"failing on both sides is judged on time", row(100, 130, func(r *CompareRow) { r.OKOld, r.OKNew = false, false }), "REGRESSED", true},
		{"no baseline", row(0, 9999, func(r *CompareRow) { r.InOld = false }), "new", false},
		{"gone from the new run", row(9999, 0, func(r *CompareRow) { r.InNew = false }), "removed", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := []CompareRow{tc.row}
			n := Classify(rows, 0.15, 25)
			if rows[0].Status != tc.want || (n == 1) != tc.regression {
				t.Fatalf("status %q, %d regression(s); want %q, regression=%v", rows[0].Status, n, tc.want, tc.regression)
			}
		})
	}
}

// TestWriteCompareTable pins the one delta-table renderer at both CLIs'
// column layouts: a side that is absent prints "-", and so does the delta
// of a row that has no baseline to divide by.
func TestWriteCompareTable(t *testing.T) {
	rows := []CompareRow{
		{ID: "A", OldMS: 100, NewMS: 130, InOld: true, InNew: true, OKOld: true, OKNew: true},
		{ID: "NEW", NewMS: 10, InNew: true, OKNew: true},
		{ID: "GONE", OldMS: 5, InOld: true, OKOld: true},
	}
	Classify(rows, 0.15, 25)
	var sb strings.Builder
	WriteCompareTable(&sb, "id", 4, rows)
	want := "id         old ms       new ms    delta  status\n" +
		"A           100.0        130.0   +30.0%  REGRESSED\n" +
		"NEW             -         10.0        -  new\n" +
		"GONE          5.0            -        -  removed\n"
	if sb.String() != want {
		t.Errorf("table:\n%s\nwant:\n%s", sb.String(), want)
	}
	sb.Reset()
	WriteCompareTable(&sb, "metric", 32, rows[:1])
	if !strings.HasPrefix(sb.String(), "metric"+strings.Repeat(" ", 26)+" ") {
		t.Errorf("32-wide id column not honoured:\n%s", sb.String())
	}
}

func TestCompareThresholdAndNoiseFloor(t *testing.T) {
	base := artifactFixture()
	cases := []struct {
		name        string
		mutate      func(a *load.Artifact)
		threshold   float64
		minMS       float64
		wantStatus  map[string]string // metric -> status, unchecked metrics must be "ok"
		regressions int
	}{
		{
			name:      "identical artifacts never regress",
			mutate:    func(a *load.Artifact) {},
			threshold: 0.5, minMS: 50,
			regressions: 0,
		},
		{
			name:      "growth beyond threshold regresses",
			mutate:    func(a *load.Artifact) { a.Tools["kdv"].P95MS = 200 }, // 80 -> 200 = +150%
			threshold: 0.5, minMS: 50,
			wantStatus:  map[string]string{"kdv.p95_ms": "REGRESSED"},
			regressions: 1,
		},
		{
			name:      "growth under the noise floor is ignored",
			mutate:    func(a *load.Artifact) { a.Tools["upload"].P95MS = 30 }, // 9 -> 30 = +233%, both < 50ms
			threshold: 0.5, minMS: 50,
			wantStatus:  map[string]string{"upload.p95_ms": "ok"},
			regressions: 0,
		},
		{
			name:      "crossing the floor upward counts",
			mutate:    func(a *load.Artifact) { a.Tools["upload"].P95MS = 60 }, // 9 -> 60, new side >= 50ms
			threshold: 0.5, minMS: 50,
			wantStatus:  map[string]string{"upload.p95_ms": "REGRESSED"},
			regressions: 1,
		},
		{
			name:      "shrink beyond threshold reads faster",
			mutate:    func(a *load.Artifact) { a.Tools["kdv"].P99MS = 30 }, // 120 -> 30
			threshold: 0.5, minMS: 50,
			wantStatus:  map[string]string{"kdv.p99_ms": "faster"},
			regressions: 0,
		},
		{
			name: "new tool never fails",
			mutate: func(a *load.Artifact) {
				a.Tools["moran"] = &load.ToolStats{Count: 1, P95MS: 9999}
			},
			threshold: 0.5, minMS: 50,
			wantStatus:  map[string]string{"moran.p95_ms": "new"},
			regressions: 0,
		},
		{
			name:      "removed tool never fails",
			mutate:    func(a *load.Artifact) { delete(a.Tools, "upload") },
			threshold: 0.5, minMS: 50,
			wantStatus:  map[string]string{"upload.p95_ms": "removed"},
			regressions: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := artifactFixture()
			tc.mutate(cur)
			rows, regressed := Compare(base, cur, tc.threshold, tc.minMS)
			if regressed != tc.regressions {
				t.Fatalf("regressions = %d, want %d (rows: %+v)", regressed, tc.regressions, rows)
			}
			byMetric := make(map[string]string)
			for _, r := range rows {
				byMetric[r.ID] = r.Status
			}
			for metric, want := range tc.wantStatus {
				if byMetric[metric] != want {
					t.Fatalf("%s status = %s, want %s", metric, byMetric[metric], want)
				}
			}
		})
	}
}

// TestDegradedArtifactFailsSLOGate is the acceptance-level assertion: a
// synthetically degraded run (inflated latencies, nonzero error rate)
// must fail both halves of the gate that the healthy fixture passes.
func TestDegradedArtifactFailsSLOGate(t *testing.T) {
	slo := &SLO{Checks: []Check{
		{Metric: "kdv.p95_ms", Max: f(1000)},
		{Metric: "kdv.error_rate", Max: f(0)},
		{Metric: "server.singleflight_shared", Min: f(1)},
	}}
	healthy := artifactFixture()
	if _, failures := Evaluate(healthy, slo); failures != 0 {
		t.Fatalf("healthy artifact failed the SLO gate: %d failures", failures)
	}
	if _, regressed := Compare(healthy, healthy, 0.5, 50); regressed != 0 {
		t.Fatalf("healthy artifact regressed against itself")
	}

	degraded := artifactFixture()
	degraded.Tools["kdv"].P95MS = 5000
	degraded.Tools["kdv"].ErrorRate = 0.25
	degraded.Server.SingleflightShared = 0
	if _, failures := Evaluate(degraded, slo); failures != 3 {
		got, _ := Evaluate(degraded, slo)
		t.Fatalf("degraded artifact: %d SLO failures, want 3 (%+v)", failures, got)
	}
	if _, regressed := Compare(healthy, degraded, 0.5, 50); regressed == 0 {
		t.Fatal("degraded artifact did not regress against the healthy baseline")
	}
}
