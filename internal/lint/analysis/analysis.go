// Package analysis is a minimal, dependency-free clone of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// typechecked package through a Pass and reports Diagnostics. The x/tools
// module is deliberately not imported — the repository is stdlib-only — so
// this package defines just the subset geolint needs: per-package analyzers
// over syntax plus full type information, with positional diagnostics and
// cross-package object facts.
//
// Facts are how analyzers see across package boundaries. An analyzer that
// learns something about a package-level object (for example "this
// function may block") exports a Fact for it; when a downstream package is
// analyzed later, any analyzer that declared the fact's type can import
// it. Unlike x/tools, facts are not serialised: the geolint driver checks
// the whole module in one process, in import dependency order, against
// one shared store — an object's fact is simply still in memory when its
// importers are analyzed.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant the analyzer
	// guards and what to do about a report.
	Doc string
	// Requires lists analyzers that must run before this one on every
	// package, typically because they export facts this analyzer imports.
	// The driver orders analyzers by this graph and rejects cycles.
	Requires []*Analyzer
	// FactTypes declares (by example value) every fact type this analyzer
	// exports or imports. Export/Import of an undeclared type panics: the
	// declaration is what lets the driver know which analyzers share
	// facts, so an undeclared use is a bug in the analyzer.
	FactTypes []Fact
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass hands an Analyzer one typechecked package.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token.Pos to file positions for every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// PkgPath is the package's import path (e.g. "geostat/internal/kde").
	PkgPath string
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the package's type and object resolution results.
	TypesInfo *types.Info

	// report receives each diagnostic; installed by the driver.
	report func(Diagnostic)
	// facts is the driver's shared fact store; nil when the pass runs
	// outside a driver (facts then silently no-op on export and always
	// miss on import, so single-package runs keep working).
	facts *FactStore
}

// NewPass returns a Pass delivering diagnostics to report.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkgPath string, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		PkgPath:   pkgPath,
		Pkg:       pkg,
		TypesInfo: info,
		report:    report,
	}
}

// SetFacts installs the driver's shared fact store.
func (p *Pass) SetFacts(s *FactStore) { p.facts = s }

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}
