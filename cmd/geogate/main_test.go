package main

import (
	"os"
	"path/filepath"
	"testing"

	"geostat/internal/load"
)

func writeArtifact(t *testing.T, dir, name string, mutate func(a *load.Artifact)) string {
	t.Helper()
	a := &load.Artifact{
		Scenario: "t",
		Seed:     1,
		Clients:  2,
		Requests: 20,
		Tools: map[string]*load.ToolStats{
			"kdv": {Count: 20, Status: map[string]int{"200": 20}, P50MS: 30, P95MS: 90, P99MS: 120, MaxMS: 130},
		},
		Server: load.ServerStats{ComputeTotal: 10, SingleflightShared: 3},
	}
	if mutate != nil {
		mutate(a)
	}
	path := filepath.Join(dir, name)
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeSLO(t *testing.T, dir, body string) string {
	t.Helper()
	path := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passingSLO = `{"checks": [
  {"metric": "kdv.p95_ms", "max": 1000},
  {"metric": "server.singleflight_shared", "min": 1}
]}`

// TestExitCodes pins the geogate exit-code contract the CI job and
// Makefile depend on: 0 = pass, 1 = gate failure, 2 = unusable input.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := writeArtifact(t, dir, "good.json", nil)
	degraded := writeArtifact(t, dir, "bad.json", func(a *load.Artifact) {
		a.Tools["kdv"].P95MS = 5000
		a.Tools["kdv"].P50MS = 4000
	})
	slo := writeSLO(t, dir, passingSLO)
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name                    string
		artifact, slo, baseline string
		want                    int
	}{
		{"slo pass", good, slo, "", 0},
		{"slo fail", degraded, slo, "", 1},
		{"baseline self-compare passes", good, "", good, 0},
		{"baseline regression", degraded, "", good, 1},
		{"both passes", good, slo, good, 0},
		{"missing artifact flag", "", slo, "", 2},
		{"no slo and no baseline", good, "", "", 2},
		{"artifact file absent", filepath.Join(dir, "nope.json"), slo, "", 2},
		{"artifact not json", garbage, slo, "", 2},
		{"baseline file absent", good, "", filepath.Join(dir, "nope.json"), 2},
		{"slo file absent", good, filepath.Join(dir, "nope.json"), "", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.artifact, tc.slo, tc.baseline, 0.5, 50); got != tc.want {
				t.Fatalf("exit code = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestMissingMetricFailsGate: an SLO naming a metric the artifact does
// not carry exits 1 (a gate that silently stops measuring is broken),
// not 2 (the inputs themselves are well-formed).
func TestMissingMetricFailsGate(t *testing.T) {
	dir := t.TempDir()
	good := writeArtifact(t, dir, "good.json", nil)
	slo := writeSLO(t, dir, `{"checks": [{"metric": "vanished.p95_ms", "max": 100}]}`)
	if got := run(good, slo, "", 0.5, 50); got != 1 {
		t.Fatalf("exit code = %d, want 1 for a missing metric", got)
	}
}
