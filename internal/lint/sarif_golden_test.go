package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"geostat/internal/lint/analysis"
)

var updateGolden = flag.Bool("update", false, "rewrite golden SARIF files")

// TestSARIFGoldenV3 pins the exact SARIF emitted for the v3 obligation
// rules (bodyclose, unlockpath) byte-for-byte, so
// a formatting or rule-metadata drift shows up as a reviewable diff.
// Regenerate with `go test ./internal/lint -run SARIFGoldenV3 -update`.
func TestSARIFGoldenV3(t *testing.T) {
	var analyzers []*analysis.Analyzer
	for _, name := range []string{"bodyclose", "unlockpath"} {
		a, ok := Lookup(name)
		if !ok {
			t.Fatalf("analyzer %s not registered", name)
		}
		analyzers = append(analyzers, a)
	}
	findings := []Finding{
		{
			Diagnostic: analysis.Diagnostic{Analyzer: "bodyclose",
				Message: "response body from (net/http.Client).Get is not closed on every path to return; the leaked path holds the connection out of the pool"},
			File: "internal/load/run.go", Line: 120, Col: 2,
		},
		{
			Diagnostic: analysis.Diagnostic{Analyzer: "unlockpath",
				Message: "mutex s.mu is locked here but not unlocked on every path to return; the leaked path deadlocks the next contender"},
			File: "internal/serve/registry.go", Line: 60, Col: 2,
		},
	}
	got, err := SARIF(analyzers, findings)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "v3.sarif")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SARIF drifted from golden %s (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
