package lint

import (
	"fmt"
	"sort"
	"strings"

	"geostat/internal/lint/analysis"
	"geostat/internal/lint/load"
)

// This file is the geolint driver: it runs a set of analyzers over a set
// of packages with cross-package fact propagation. Two orderings make
// facts sound:
//
//   - packages run in import dependency order (a package only runs after
//     everything it imports), so facts about imported objects are already
//     in the store when a consumer looks them up;
//   - within each package, analyzers run in Requires order, so a fact
//     producer (blockfacts) has exported its facts for THIS package before
//     a same-package consumer (locksafe) asks for them.
//
// Both sorts are stable with deterministic tie-breaks (import path,
// declaration order), so geolint's output order is reproducible.

// Finding is one surviving diagnostic with its resolved position.
type Finding struct {
	analysis.Diagnostic
	// File, Line, Col are the resolved position (File relative to the
	// module root when possible).
	File string
	Line int
	Col  int
}

// RunPackages applies analyzers to pkgs with shared fact propagation and
// returns surviving findings sorted by position. Packages with type
// errors are an error: facts derived from a broken package would be
// meaningless.
func RunPackages(l *load.Loader, pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	analyzers, err := sortAnalyzers(analyzers)
	if err != nil {
		return nil, err
	}
	ordered, err := sortPackages(pkgs)
	if err != nil {
		return nil, err
	}
	store := analysis.NewFactStore()
	var findings []Finding
	for _, pkg := range ordered {
		if len(pkg.Errors) > 0 {
			return nil, fmt.Errorf("%s: type error: %v", pkg.Path, pkg.Errors[0])
		}
		var diags []analysis.Diagnostic
		for _, a := range analyzers {
			pass := analysis.NewPass(a, l.Fset, pkg.Files, pkg.Path, pkg.Types, pkg.Info,
				func(d analysis.Diagnostic) { diags = append(diags, d) })
			pass.SetFacts(store)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
		diags = filterAllowed(l, pkg, diags)
		for _, d := range diags {
			pos := l.Fset.Position(d.Pos)
			name := pos.Filename
			if rel, ok := strings.CutPrefix(name, l.ModuleRoot+"/"); ok {
				name = rel
			}
			findings = append(findings, Finding{
				Diagnostic: d,
				File:       name,
				Line:       pos.Line,
				Col:        pos.Column,
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// ExitCode maps a run's findings to geolint's exit status: 1 iff any
// finding survived //lint:allow filtering, 0 otherwise. Every analyzer
// gates.
func ExitCode(findings []Finding) int {
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// sortAnalyzers returns analyzers in dependency order: every analyzer
// runs after all of its Requires. The sort is stable (input order breaks
// ties) and a Requires cycle is an error. Required analyzers that were
// not passed in are added implicitly — a consumer without its fact
// producer would silently see an empty store.
func sortAnalyzers(in []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[*analysis.Analyzer]int)
	var out []*analysis.Analyzer
	var visit func(a *analysis.Analyzer) error
	visit = func(a *analysis.Analyzer) error {
		switch state[a] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: analyzer dependency cycle through %q", a.Name)
		}
		state[a] = visiting
		for _, req := range a.Requires {
			if err := visit(req); err != nil {
				return err
			}
		}
		state[a] = done
		out = append(out, a)
		return nil
	}
	for _, a := range in {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortPackages returns pkgs in import dependency order: a package comes
// after every package in the input set that it (transitively) imports.
// Ties (and the starting order) are import-path order, so the result is
// deterministic. Imports outside the input set (stdlib, unanalyzed
// packages) are ignored.
func sortPackages(in []*load.Package) ([]*load.Package, error) {
	byPath := make(map[string]*load.Package, len(in))
	paths := make([]string, 0, len(in))
	for _, p := range in {
		byPath[p.Path] = p
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var out []*load.Package
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: package import cycle through %q", path)
		}
		state[path] = visiting
		pkg := byPath[path]
		if pkg.Types != nil {
			imps := make([]string, 0, len(pkg.Types.Imports()))
			for _, imp := range pkg.Types.Imports() {
				if _, ok := byPath[imp.Path()]; ok {
					imps = append(imps, imp.Path())
				}
			}
			sort.Strings(imps)
			for _, imp := range imps {
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = done
		out = append(out, pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}
