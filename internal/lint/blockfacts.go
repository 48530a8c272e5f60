package lint

import (
	"go/ast"
	"go/types"

	"geostat/internal/lint/analysis"
)

// MayBlock is exported for every function that can block the calling
// goroutine: it performs a channel operation or select, calls a known
// blocking standard-library function, or (transitively) calls a function
// that does. locksafe consumes it to reject blocking work inside mutex
// critical sections.
type MayBlock struct {
	// Why is a human-readable chain explaining the classification,
	// e.g. "calls geostat/internal/parallel.ForCtx, which may block
	// ((sync.WaitGroup).Wait)".
	Why string
}

// AFact marks MayBlock as a fact type.
func (*MayBlock) AFact() {}

// blockingStdlib lists standard-library functions that block the calling
// goroutine (or can, depending on I/O). Keys use funcKey naming. The
// table is deliberately curated rather than exhaustive: entries are
// things this codebase calls, or plausibly will, where blocking while
// holding a lock has bitten real systems. fmt.Fprint* is included
// because it writes to an arbitrary io.Writer — in production here that
// writer is an HTTP response socket, so its latency belongs to the
// remote peer. fmt.Sprint*/Print* (strings, stdout) are not.
var blockingStdlib = map[string]bool{
	"time.Sleep":                   true,
	"(sync.WaitGroup).Wait":        true,
	"(sync.Cond).Wait":             true,
	"(net/http.Client).Do":         true,
	"(net/http.Client).Get":        true,
	"(net/http.Client).Post":       true,
	"net/http.Get":                 true,
	"net/http.Post":                true,
	"net.Dial":                     true,
	"net.DialTimeout":              true,
	"net.Listen":                   true,
	"(os/exec.Cmd).Run":            true,
	"(os/exec.Cmd).Wait":           true,
	"(os/exec.Cmd).Output":         true,
	"(os/exec.Cmd).CombinedOutput": true,
	"io.ReadAll":                   true,
	"io.Copy":                      true,
	"io.CopyN":                     true,
	"fmt.Fprintf":                  true,
	"fmt.Fprint":                   true,
	"fmt.Fprintln":                 true,
	"fmt.Fscan":                    true,
	"fmt.Fscanf":                   true,
	"fmt.Fscanln":                  true,
	"(bufio.Scanner).Scan":         true,
	"(bufio.Writer).Flush":         true,
	"(os.File).Read":               true,
	"(os.File).Write":              true,
	"(os.File).Sync":               true,
	"os.ReadFile":                  true,
	"os.WriteFile":                 true,
}

// BlockFacts computes and exports the MayBlock fact for the package's
// functions. It reports nothing itself; locksafe turns the facts into
// diagnostics.
//
// The analysis is an over-approximation with one deliberate hole each
// way: closures are attributed to their enclosing function even when the
// closure only runs later (over-reports), and calls through function
// values or interface methods are invisible (under-reports).
// sync.Mutex.Lock itself is NOT may-block: lock-ordering is out of
// scope, and marking it would flag every nested critical section.
var BlockFacts = &analysis.Analyzer{
	Name: "blockfacts",
	Doc: "fact producer: mark functions that may block (channel ops, select, " +
		"blocking stdlib calls, or transitive calls to either); reports nothing",
	FactTypes: []analysis.Fact{(*MayBlock)(nil)},
	Run:       runBlockFacts,
}

func runBlockFacts(pass *analysis.Pass) error {
	infos := packageFuncs(pass)
	index := make(map[*types.Func]int, len(infos))
	for i, fi := range infos {
		index[fi.fn] = i
	}

	why := make([]string, len(infos))            // non-empty = may block
	callees := make([][]*types.Func, len(infos)) // same-package static callees

	for i, fi := range infos {
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if why[i] != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.SendStmt:
				why[i] = "channel send"
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					why[i] = "channel receive"
				}
			case *ast.SelectStmt:
				why[i] = "select"
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						why[i] = "range over channel"
					}
				}
			case *ast.CallExpr:
				fn := staticCallee(pass, n)
				if fn == nil {
					return true
				}
				key := funcKey(fn)
				switch {
				case blockingStdlib[key]:
					why[i] = "calls " + key
				case fn.Pkg() == pass.Pkg:
					callees[i] = append(callees[i], fn)
				default:
					var mb MayBlock
					if pass.ImportObjectFact(fn, &mb) {
						why[i] = "calls " + key + ", which may block (" + mb.Why + ")"
					}
				}
			}
			return true
		})
	}

	// Same-package call-graph fixpoint: a function that calls a may-block
	// function may block. Iterates to a fixed point (bounded by the number
	// of functions); iteration order does not affect the result.
	for changed := true; changed; {
		changed = false
		for i := range infos {
			if why[i] != "" {
				continue
			}
			for _, callee := range callees[i] {
				j, ok := index[callee]
				if !ok || why[j] == "" {
					continue
				}
				why[i] = "calls " + funcKey(callee) + ", which may block"
				changed = true
				break
			}
		}
	}

	for i, fi := range infos {
		if why[i] != "" {
			pass.ExportObjectFact(fi.fn, &MayBlock{Why: why[i]})
		}
	}
	return nil
}
