// Package lint is geolint: the project-specific static-analysis suite that
// enforces the repository's determinism and concurrency invariants at
// vet-time instead of in flaky test runs.
//
// Since the facts upgrade, geolint is a cross-package analysis framework:
// the driver (see driver.go) runs analyzers over the module's packages in
// import dependency order, analyzers export typed facts about
// package-level objects (a function may block), and downstream analyzers
// consume facts from imported packages.
//
// The custom analyzers guard the conventions PR 1 established plus the
// scale-out preconditions (distributed tiles, bit-exact shard merges)
// from the roadmap:
//
//   - norawgoroutine — every goroutine is owned by internal/parallel;
//   - seededrand — every random draw comes from an explicitly seeded
//     source threaded through options (no math/rand globals, no rand.New
//     outside internal/parallel);
//   - floateq — no ==/!= on computed floating-point values in statistic
//     code (zero sentinels and NaN self-compares are allowed);
//   - workersopt — every exported entry point that accepts a Workers
//     option actually threads it into the parallel engine;
//   - obsname — every obs span name literal follows the documented
//     tool.stage naming convention (metric names are validated by the
//     registry at registration);
//   - colaccess — the dataset's columnar storage (dataset.Columns /
//     dataset.Chunk fields) is never mutated outside internal/dataset;
//   - blockfacts — (fact producer, no reports) marks functions that may
//     block: channel operations, selects, WaitGroup.Wait, blocking stdlib
//     calls, and anything that transitively calls one;
//   - locksafe — no sync.Mutex/RWMutex held across channel operations or
//     calls carrying the may-block fact (the statically-checkable half of
//     the PR-4 registry race class).
//
// Since the v3 upgrade, geolint is also path-sensitive: the obligation
// engine (obligation.go) walks each function body's syntax tree and
// checks "acquired here must be released on every path to return". Two
// analyzers ride the engine:
//
//   - bodyclose — every http.Response body is closed on all paths;
//   - unlockpath — a locked Mutex/RWMutex is unlocked on every exit path
//     (the control-flow complement to locksafe, sharing its
//     lock-recognition machinery).
//
// One general pass rides along: shadow, which `go vet`'s default suite
// lacks. Every analyzer gates: a surviving finding fails the run.
//
// geolint does not re-check what `make vet` already checks. Locks copied
// by value, lost context cancel funcs and discarded results of pure
// functions are vet's copylocks, lostcancel and unusedresult passes (the
// Makefile widens unusedresult's function list), and go 1.22 loop
// semantics retired the loop-variable capture bug. Allocations in the
// columnar inner loops are counted by testing.AllocsPerRun tests in the
// kde, idw and kfunc packages, not inferred here. Seeded results are
// held bit-identical by the same-seed and worker-count tests, and metric
// names by the obs registry, which panics on a bad one at registration.
// Output assembled from a map range is held sorted by the cache-key,
// metrics-text and dataset-listing tests, and a context that stops short
// of the parallel engine fails a cancellation or trace test. Each analyzer here is kept for a production mutation that only it
// catches (DESIGN.md, "What tests catch instead").
//
// A finding is suppressed by a `//lint:allow <analyzer> <reason>` comment
// on the flagged line, the line directly above it, or anywhere the
// directive's statement extends: a directive attached to a multi-line
// statement (its own line or the line above the statement's first line)
// covers the whole statement, so a diagnostic inside a multi-line
// composite literal or chained call cannot escape the suppression. The
// debt gate (debt.go) fails on a directive with no reason or one naming
// an analyzer geolint does not run (`go vet` cannot honour it, and a typo
// would suppress nothing). Suppressions are for cases where the invariant
// is provably respected in a way the analyzer cannot see (for example a
// demo that intentionally shows nondeterminism), never for convenience.
package lint

import (
	"go/ast"

	"geostat/internal/lint/analysis"
	"geostat/internal/lint/load"
)

// Analyzers returns every analyzer geolint runs, custom passes first.
// Fact producers precede their consumers (the driver re-sorts by Requires
// anyway; keeping the listing ordered makes -list readable).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoRawGoroutine,
		SeededRand,
		FloatEq,
		WorkersOpt,
		ObsName,
		ColAccess,
		BlockFacts,
		LockSafe,
		BodyClose,
		UnlockPath,
		Shadow,
	}
}

// Lookup returns the analyzer with the given name.
func Lookup(name string) (*analysis.Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// filterAllowed drops diagnostics covered by a //lint:allow directive.
// Coverage is line-based (the directive's line and the line below it, the
// historical contract) plus statement-based: a directive whose line
// coincides with, or directly precedes, the first line of a simple
// statement or declaration suppresses the statement's whole line range,
// so multi-line composite literals and chained calls cannot escape.
func filterAllowed(l *load.Loader, pkg *load.Package, diags []analysis.Diagnostic) []analysis.Diagnostic {
	// allowed[file][line] = analyzer names allowed on that line.
	allowed := make(map[string]map[int][]string)
	addRange := func(file string, lo, hi int, names []string) {
		m := allowed[file]
		if m == nil {
			m = make(map[int][]string)
			allowed[file] = m
		}
		for line := lo; line <= hi; line++ {
			m[line] = append(m[line], names...)
		}
	}
	for _, f := range pkg.Files {
		// Directive lines first: the classic "this line and the next".
		type directive struct {
			line  int
			names []string
		}
		var dirs []directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, _, ok := parseAllowDetail(c.Text)
				if !ok {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				dirs = append(dirs, directive{line: pos.Line, names: names})
				addRange(pos.Filename, pos.Line, pos.Line+1, names)
			}
		}
		if len(dirs) == 0 {
			continue
		}
		// Statement extents: find each simple statement/declaration whose
		// first line matches a directive (same line for a trailing comment,
		// next line for a comment above) and extend the allowance over its
		// full line range.
		fileName := l.Fset.Position(f.Pos()).Filename
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || !suppressibleNode(n) {
				return true
			}
			start := l.Fset.Position(n.Pos()).Line
			end := l.Fset.Position(n.End()).Line
			if end <= start+1 {
				return true // single/two-line: the line rule already covers it
			}
			for _, d := range dirs {
				if d.line == start || d.line == start-1 {
					addRange(fileName, start, end, d.names)
				}
			}
			return true
		})
	}
	out := diags[:0]
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		if lineAllows(allowed[pos.Filename], pos.Line, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// suppressibleNode reports whether n is a statement/declaration kind whose
// whole extent a //lint:allow directive covers. Control-flow statements
// (if/for/range/switch) are excluded on purpose: a directive above a loop
// must not blanket-suppress the loop body, only its own and the next
// line.
func suppressibleNode(n ast.Node) bool {
	switch n.(type) {
	case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.GenDecl, *ast.ValueSpec:
		return true
	}
	return false
}

func lineAllows(m map[int][]string, line int, analyzer string) bool {
	if m == nil {
		return false
	}
	for _, name := range m[line] {
		if name == analyzer {
			return true
		}
	}
	return false
}
