// Command geolint is the repository's multichecker: it typechecks the
// module with the standard library only and applies geolint's custom
// determinism/concurrency analyzers plus the shadow pass (see
// internal/lint). What `go vet` already checks — copylocks, lostcancel,
// unusedresult — runs under `make vet`, not here. Analyzers run over
// every package in import dependency order with cross-package fact
// propagation, so a single invocation sees the whole module's call graph.
//
// Usage:
//
//	geolint [-only name[,name]] [-list] [-sarif] [-o file] [packages]
//	geolint -debt [-debt-baseline lint_debt.json] [-o file]
//
// -debt inventories every //lint:allow directive into a JSON debt report
// instead of running analyzers. With -debt-baseline the report is diffed
// against the committed budget: the run fails (exit 1) when suppressions
// for any analyzer grew beyond the budget, or when a directive carries no
// reason or names an analyzer geolint does not run, so debt only grows
// through an explicit baseline bump.
//
// The package arguments are accepted for interface parity with go vet
// ("./..." is typical) but the whole module is always checked: the
// invariants are module-wide, facts flow across packages, and partial
// runs invite partial truths.
//
// Exit status: 0 when no finding survives //lint:allow filtering, 1 when
// at least one does (every analyzer gates), 2 on load or type errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"geostat/internal/lint"
	"geostat/internal/lint/load"
)

func main() {
	var (
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		dirFlag   = flag.String("C", ".", "directory inside the module to lint")
		sarifFlag = flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (for code scanning upload)")
		outFlag   = flag.String("o", "", "write the -sarif/-debt report to file (text findings still print to stdout)")
		debtFlag  = flag.Bool("debt", false, "inventory //lint:allow suppressions as JSON instead of running analyzers")
		debtBase  = flag.String("debt-baseline", "", "with -debt: diff against this committed budget and fail on growth")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := lint.Lookup(strings.TrimSpace(name))
			if !ok {
				fatalf("unknown analyzer %q (use -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := load.FindModuleRoot(*dirFlag)
	if err != nil {
		fatalf("%v", err)
	}
	loader, err := load.NewLoader(root)
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := loader.Module()
	if err != nil {
		fatalf("%v", err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(os.Stderr, "geolint: %s: type error: %v\n", pkg.Path, e)
		}
		if len(pkg.Errors) > 0 {
			os.Exit(2)
		}
	}

	if *debtFlag {
		report := lint.CollectDebt(loader, pkgs)
		data, jerr := report.JSON()
		if jerr != nil {
			fatalf("%v", jerr)
		}
		if *outFlag != "" {
			if werr := os.WriteFile(*outFlag, data, 0o644); werr != nil {
				fatalf("%v", werr)
			}
		} else {
			os.Stdout.Write(data)
		}
		if *debtBase != "" {
			raw, rerr := os.ReadFile(*debtBase)
			if rerr != nil {
				fatalf("%v", rerr)
			}
			baseline, perr := lint.ParseDebt(raw)
			if perr != nil {
				fatalf("%v", perr)
			}
			table, ok := lint.DiffDebt(baseline, report)
			fmt.Fprint(os.Stderr, table)
			if !ok {
				os.Exit(1)
			}
		}
		return
	}

	findings, err := lint.RunPackages(loader, pkgs, analyzers)
	if err != nil {
		fatalf("%v", err)
	}

	var report []byte
	if *sarifFlag {
		if report, err = lint.SARIF(analyzers, findings); err != nil {
			fatalf("%v", err)
		}
		report = append(report, '\n')
	}
	// With -o the structured report goes to the file and the human-readable
	// text still goes to stdout: one type-checked load serves both the CI
	// log and the code-scanning upload. Without -o the structured report
	// (or, by default, the text) goes to stdout.
	if *outFlag != "" && report != nil {
		if werr := os.WriteFile(*outFlag, report, 0o644); werr != nil {
			fatalf("%v", werr)
		}
		report = nil
	}
	if report != nil {
		os.Stdout.Write(report)
	} else {
		var b strings.Builder
		for _, f := range findings {
			fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
		os.Stdout.WriteString(b.String())
	}
	os.Exit(lint.ExitCode(findings))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "geolint: "+format+"\n", args...)
	os.Exit(2)
}
