package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"geostat/internal/lint"
	"geostat/internal/lint/load"
)

// TestSelfLint asserts the module is clean under its own full analyzer
// suite — the same invariant `make lint` gates CI on. Any finding fails:
// a change that introduces one must either fix it or carry a justified
// //lint:allow.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	root, err := load.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := load.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Module()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if len(pkg.Errors) > 0 {
			t.Fatalf("%s: type error: %v", pkg.Path, pkg.Errors[0])
		}
	}
	findings, err := lint.RunPackages(l, pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}

	// The full suite includes the two v3 obligation analyzers — pin them
	// so a registration slip cannot silently drop a leak check.
	for _, name := range []string{"bodyclose", "unlockpath"} {
		if _, ok := lint.Lookup(name); !ok {
			t.Errorf("analyzer %s missing from the suite", name)
		}
	}

	// The CI debt gate, run in-process: every directive in production code
	// is justified (a reason, a registered analyzer) and the inventory
	// stays within lint_debt.json.
	debt := lint.CollectDebt(l, pkgs)
	raw, err := os.ReadFile(filepath.Join(root, "lint_debt.json"))
	if err != nil {
		t.Fatalf("reading committed debt baseline: %v", err)
	}
	baseline, err := lint.ParseDebt(raw)
	if err != nil {
		t.Fatal(err)
	}
	if table, ok := lint.DiffDebt(baseline, debt); !ok {
		t.Errorf("suppression debt exceeds the committed budget; update lint_debt.json deliberately if intended\n%s", table)
	}
}
