package lint

import (
	"strings"
	"testing"

	"geostat/internal/lint/analysis"
)

func TestSortAnalyzersDependencyOrder(t *testing.T) {
	producer := &analysis.Analyzer{Name: "producer", Run: func(*analysis.Pass) error { return nil }}
	consumer := &analysis.Analyzer{
		Name:     "consumer",
		Requires: []*analysis.Analyzer{producer},
		Run:      func(*analysis.Pass) error { return nil },
	}
	got, err := sortAnalyzers([]*analysis.Analyzer{consumer, producer})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != producer || got[1] != consumer {
		t.Fatalf("want [producer consumer], got %v", names(got))
	}
}

func TestSortAnalyzersAddsImplicitRequires(t *testing.T) {
	producer := &analysis.Analyzer{Name: "producer", Run: func(*analysis.Pass) error { return nil }}
	consumer := &analysis.Analyzer{
		Name:     "consumer",
		Requires: []*analysis.Analyzer{producer},
		Run:      func(*analysis.Pass) error { return nil },
	}
	// Only the consumer is requested; the producer must be pulled in
	// anyway, or the consumer would silently see an empty fact store.
	got, err := sortAnalyzers([]*analysis.Analyzer{consumer})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != producer || got[1] != consumer {
		t.Fatalf("want implicit [producer consumer], got %v", names(got))
	}
}

func TestSortAnalyzersCycle(t *testing.T) {
	a := &analysis.Analyzer{Name: "a", Run: func(*analysis.Pass) error { return nil }}
	b := &analysis.Analyzer{Name: "b", Requires: []*analysis.Analyzer{a}, Run: func(*analysis.Pass) error { return nil }}
	a.Requires = []*analysis.Analyzer{b}
	if _, err := sortAnalyzers([]*analysis.Analyzer{a, b}); err == nil {
		t.Fatal("cycle not detected")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("error does not mention the cycle: %v", err)
	}
}

func TestRegistryRequiresAcyclic(t *testing.T) {
	if _, err := sortAnalyzers(Analyzers()); err != nil {
		t.Fatalf("production analyzer set does not sort: %v", err)
	}
}

// TestExitCode pins the gating semantics: any finding fails the run.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name     string
		findings []Finding
		want     int
	}{
		{"empty", nil, 0},
		{"one finding", []Finding{{}}, 1},
		{"two findings", []Finding{{}, {}}, 1},
	}
	for _, tc := range cases {
		if got := ExitCode(tc.findings); got != tc.want {
			t.Errorf("%s: ExitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func names(as []*analysis.Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}
