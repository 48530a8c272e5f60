package lint_test

import (
	"path/filepath"
	"testing"

	"geostat/internal/lint"
	"geostat/internal/lint/analysistest"
)

// TestAnalyzerFixtures runs every analyzer over its fixture package under
// testdata/src/<name>, which contains both flagged cases (annotated with
// `// want`) and allowed cases (including //lint:allow suppressions).
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range lint.Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			analysistest.Run(t, a, filepath.Join("testdata", "src", a.Name))
		})
	}
}

// TestCrossPackageFactFixtures runs the two-package fact fixtures: the
// producing package exports a fact (MayBlock) that the consuming
// package's diagnostics depend on. A regression here means
// facts stopped crossing package boundaries.
func TestCrossPackageFactFixtures(t *testing.T) {
	cases := []struct {
		analyzer string
		dir      string
	}{
		{"locksafe", "locksafe_xpkg"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			a, ok := lint.Lookup(tc.analyzer)
			if !ok {
				t.Fatalf("analyzer %q not registered", tc.analyzer)
			}
			analysistest.Run(t, a, filepath.Join("testdata", "src", tc.dir))
		})
	}
}

// TestAllowStatementExtent is the regression test for //lint:allow
// coverage of multi-line statements: a directive attached to a
// composite-literal return suppresses diagnostics on every line of the
// statement, while control-flow statements keep the narrow two-line
// rule.
func TestAllowStatementExtent(t *testing.T) {
	t.Parallel()
	a, ok := lint.Lookup("floateq")
	if !ok {
		t.Fatal("floateq not registered")
	}
	analysistest.Run(t, a, filepath.Join("testdata", "src", "allowstmt"))
}

func TestLookup(t *testing.T) {
	if _, ok := lint.Lookup("seededrand"); !ok {
		t.Error("seededrand not registered")
	}
	if _, ok := lint.Lookup("nosuchpass"); ok {
		t.Error("unknown analyzer resolved")
	}
}
