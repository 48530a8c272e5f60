package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geostat/internal/lint/analysis"
)

// The obligation engine on its own, under a test rule with two kinds of
// obligation: acquire() creates a key obligation that release() discharges
// (the unlockpath shape), and `r, err := open()` binds a value obligation
// that r.Close() discharges (the bodyclose shape); and under a held-region
// rule that reports each block() call, receive, select and range run while
// acquire() is pending (the locksafe shape). Each case is one function
// body; the engine's fixtures for the real analyzers live under
// testdata/src/bodyclose, testdata/src/unlockpath and testdata/src/locksafe.

const obligationPrelude = `package p

import "os"

type res struct{ n int }

func (r *res) Close() {}

func open() (*res, error) { return nil, nil }
func acquire()            {}
func release()            {}
func mark()               {}
func block() bool         { return true }
func keep(*res)           {}

var _ = os.Exit

func f(cond bool, mode int, xs []int, ch chan int) {
`

// osStub type-checks a one-function "os" package so the fixtures can call
// os.Exit without loading the standard library.
type osStub struct{ fset *token.FileSet }

func (s osStub) Import(path string) (*types.Package, error) {
	f, err := parser.ParseFile(s.fset, "os.go", "package os\nfunc Exit(code int) {}\n", 0)
	if err != nil {
		return nil, err
	}
	return (&types.Config{}).Check(path, s.fset, []*ast.File{f}, nil)
}

var testObRule = &obRule{
	acquisitions: func(pass *analysis.Pass, node ast.Node) []*oblig {
		if es, ok := node.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && calleeName(call) == "acquire" {
				return []*oblig{{pos: call.Pos(), key: "k", releaseOp: "release", what: "lock"}}
			}
		}
		return valueAcquisitions(pass, node,
			func(fn *types.Func, _ *types.Signature) (int, int, string, bool) {
				return 0, 1, "res", fn.Name() == "open"
			},
			func(pass *analysis.Pass, call *ast.CallExpr, what string) {
				pass.Reportf(call.Pos(), "%s discarded", what)
			})
	},
	isRelease: func(pass *analysis.Pass, call *ast.CallExpr, ob *oblig) bool {
		if ob.obj == nil {
			return calleeName(call) == ob.releaseOp
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == ob.obj
	},
	leak: func(ob *oblig) string { return ob.what + " leaks" },
}

// testHeldRule is the held-region rule: acquire() and release() as in
// testObRule, no leak reports, and each position reported once, as
// locksafe does.
func testHeldRule(pass *analysis.Pass) *obRule {
	report := reportOnce(pass)
	return &obRule{
		acquisitions: testObRule.acquisitions,
		isRelease:    testObRule.isRelease,
		held: func(pass *analysis.Pass, ob *oblig, n ast.Node) {
			switch n.(type) {
			case *ast.SelectStmt:
				report(n.Pos(), "select under %s", ob.what)
				return
			case *ast.RangeStmt:
				report(n.Pos(), "range under %s", ob.what)
				return
			}
			walkOwn(n, func(m ast.Node) {
				switch m := m.(type) {
				case *ast.CallExpr:
					if calleeName(m) == "block" {
						report(m.Pos(), "block under %s", ob.what)
					}
				case *ast.UnaryExpr:
					if m.Op == token.ARROW {
						report(m.Pos(), "receive under %s", ob.what)
					}
				}
			})
		},
	}
}

func calleeName(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkBody type-checks body as the body of f beside the prelude and runs
// the engine over f alone, under testHeldRule if held is set and under
// testObRule if not. It returns the diagnostics as "line: message", lines
// counted from the first line of body, joined by "; ".
func checkBody(t testing.TB, body string, held, mustTypeCheck bool) string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", obligationPrelude+body+"\n}\n", 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: osStub{fset},
		Error:    func(err error) { typeErrs = append(typeErrs, err.Error()) },
	}
	pkg, _ := conf.Check("p", fset, []*ast.File{file}, info)
	if mustTypeCheck && len(typeErrs) > 0 {
		t.Fatalf("type errors: %s", strings.Join(typeErrs, "; "))
	}
	var fn *ast.FuncDecl
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fn = fd
		}
	}
	first := strings.Count(obligationPrelude, "\n") + 1
	var got []string
	pass := analysis.NewPass(&analysis.Analyzer{Name: "obligation"}, fset, []*ast.File{file}, "p", pkg, info,
		func(d analysis.Diagnostic) {
			line := fset.Position(d.Pos).Line - first + 1
			got = append(got, strconv.Itoa(line)+": "+d.Message)
		})
	rule := testObRule
	if held {
		rule = testHeldRule(pass)
	}
	checkFuncObligations(pass, rule, fn.Body)
	return strings.Join(got, "; ")
}

func TestObligationWalk(t *testing.T) {
	const leak = "1: lock leaks"
	cases := []struct {
		name, body, want string
	}{
		{"straight_line_released", "acquire()\nrelease()", ""},
		{"straight_line_leak", "acquire()\nmark()", leak},
		{"if_no_else_release_in_then", "acquire()\nif cond {\nrelease()\n}", leak},
		{"if_else_both_release", "acquire()\nif cond {\nrelease()\n} else {\nrelease()\n}", ""},
		{"if_else_one_release", "acquire()\nif cond {\nrelease()\n} else {\nmark()\n}", leak},
		{"early_return_pending", "acquire()\nif cond {\nreturn\n}\nrelease()", leak},
		{"early_return_after_release", "acquire()\nif cond {\nrelease()\nreturn\n}\nrelease()", ""},
		{"return_before_release", "acquire()\nreturn\nrelease()", leak},
		{"unreachable_after_return", "acquire()\nrelease()\nreturn\nmark()", ""},

		// A for loop's body may run zero times; its head is re-walked until
		// the bit there stops growing.
		{"for_release_after", "acquire()\nfor i := 0; i < mode; i++ {\nmark()\n}\nrelease()", ""},
		{"for_release_in_body_only", "acquire()\nfor i := 0; i < mode; i++ {\nrelease()\n}", leak},
		{"for_acquire_release_in_body", "for i := 0; i < mode; i++ {\nacquire()\nrelease()\n}", ""},
		{"for_continue_skips_release", "for i := 0; i < mode; i++ {\nacquire()\nif cond {\ncontinue\n}\nrelease()\n}", "2: lock leaks"},
		{"for_post_releases", "for i := 0; i < mode; release() {\ni++\nacquire()\nif cond {\ncontinue\n}\n}", ""},
		{"infinite_for_never_exits", "acquire()\nfor {\nmark()\n}", ""},
		{"infinite_for_break_pending", "acquire()\nfor {\nif cond {\nbreak\n}\n}", leak},
		{"infinite_for_break_after_release", "acquire()\nfor {\nif cond {\nrelease()\nbreak\n}\n}", ""},
		{"range_release_in_body_only", "acquire()\nfor range xs {\nrelease()\n}", leak},
		{"range_release_after", "acquire()\nfor _, x := range xs {\n_ = x\n}\nrelease()", ""},

		// Without a default a switch can skip every clause.
		{"switch_no_default", "acquire()\nswitch mode {\ncase 0:\nrelease()\ncase 1:\nrelease()\n}", leak},
		{"switch_default", "acquire()\nswitch mode {\ncase 0:\nrelease()\ndefault:\nrelease()\n}", ""},
		{"switch_fallthrough_into_release", "acquire()\nswitch mode {\ncase 0:\nmark()\nfallthrough\ncase 1:\nrelease()\ndefault:\nrelease()\n}", ""},
		{"switch_break_skips_release", "acquire()\nswitch mode {\ndefault:\nif cond {\nbreak\n}\nrelease()\n}", leak},
		{"type_switch_default", "var v any = mode\nacquire()\nswitch v.(type) {\ncase int:\nrelease()\ndefault:\nrelease()\n}", ""},
		{"type_switch_no_default", "var v any = mode\nacquire()\nswitch v.(type) {\ncase int:\nrelease()\ncase string:\nrelease()\n}", "2: lock leaks"},

		{"select_every_clause_releases", "acquire()\nselect {\ncase v := <-ch:\n_ = v\nrelease()\ncase ch <- mode:\nrelease()\n}", ""},
		{"select_one_clause_pending", "acquire()\nselect {\ncase <-ch:\nrelease()\ndefault:\nmark()\n}", leak},
		{"select_break_skips_release", "acquire()\nselect {\ncase <-ch:\nif cond {\nbreak\n}\nrelease()\n}", leak},
		{"empty_select_blocks_forever", "acquire()\nselect {}", ""},

		// A labeled break or continue goes to its own statement, not to
		// the innermost one.
		{"labeled_break_pending", "acquire()\nouter:\nfor {\nfor {\nif cond {\nbreak outer\n}\n}\n}", leak},
		{"labeled_break_after_release", "acquire()\nouter:\nfor {\nfor {\nif cond {\nrelease()\nbreak outer\n}\n}\n}", ""},
		{"labeled_continue_pending", "outer:\nfor i := 0; i < mode; i++ {\nacquire()\nfor {\nif cond {\ncontinue outer\n}\nrelease()\nbreak\n}\n}", "3: lock leaks"},
		{"labeled_break_out_of_switch_loop", "acquire()\nloop:\nfor {\nswitch mode {\ncase 0:\nbreak loop\ndefault:\n}\n}", leak},
		// goto is not followed: its path ends at the goto.
		{"goto_ends_path", "acquire()\nif cond {\ngoto done\n}\nrelease()\ndone:\nmark()", ""},

		{"panic_on_branch", "acquire()\nif cond {\npanic(\"boom\")\n}\nrelease()", ""},
		{"panic_only_exit", "acquire()\npanic(\"boom\")", ""},
		{"no_return_call_ends_path", "acquire()\nif cond {\nos.Exit(1)\n}\nrelease()", ""},
		// A function literal's body is not this function's path.
		{"exit_inside_func_literal", "acquire()\nif cond {\nfunc() { os.Exit(1) }()\nreturn\n}\nrelease()", leak},
		{"release_inside_func_literal", "acquire()\nfunc() { release() }()", leak},

		{"defer_release", "acquire()\ndefer release()\nif cond {\nreturn\n}", ""},
		{"defer_closure_release", "acquire()\ndefer func() {\nrelease()\n}()", ""},
		{"defer_in_loop", "for i := 0; i < mode; i++ {\nacquire()\ndefer release()\n}", ""},

		// Value obligations: branches on the acquisition's own error, or a
		// nil check of the resource, refine where it exists.
		{"err_nil_return_then_close", "r, err := open()\nif err != nil {\nreturn\n}\nr.Close()", ""},
		{"err_eq_nil_close", "r, err := open()\nif err == nil {\nr.Close()\n}", ""},
		{"resource_nil_return", "r, _ := open()\nif r == nil {\nreturn\n}\nr.Close()", ""},
		{"field_read_is_not_escape", "r, err := open()\nif err != nil {\nreturn\n}\n_ = r.n", "1: res leaks"},
		{"argument_escapes", "r, err := open()\nif err != nil {\nreturn\n}\nkeep(r)", ""},
		{"closure_capture_escapes", "r, _ := open()\ngo func() {\nr.Close()\n}()", ""},
		{"discarded_result", "open()", "1: res discarded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkBody(t, tc.body, false, true); got != tc.want {
				t.Errorf("got %q, want %q\nbody:\n%s", got, tc.want, tc.body)
			}
		})
	}

	// Held regions: what runs while the obligation is pending.
	held := []struct {
		name, body, want string
	}{
		{"held_straight_line", "block()\nacquire()\nblock()\nrelease()\nblock()", "3: block under lock"},
		// A deferred release holds the region open to the end.
		{"held_deferred_release", "acquire()\ndefer release()\nblock()\nif cond {\nreturn\n}\nblock()", "3: block under lock; 7: block under lock"},
		{"held_deferred_closure_release", "acquire()\ndefer func() {\nrelease()\n}()\nblock()", "5: block under lock"},
		// An unlock in one branch leaves the lock held after the if; one on
		// both branches ends it.
		{"held_unlock_in_one_branch", "acquire()\nif cond {\nrelease()\n}\nblock()", "5: block under lock"},
		{"held_unlock_in_both_branches", "acquire()\nif cond {\nrelease()\n} else {\nrelease()\n}\nblock()", ""},
		{"held_early_return_release", "acquire()\nif cond {\nrelease()\nreturn\n}\nblock()\nrelease()", "6: block under lock"},
		{"held_acquired_in_branch", "if cond {\nacquire()\n}\nblock()\nrelease()", "4: block under lock"},
		{"held_acquired_in_block", "{\nacquire()\n}\nblock()\nrelease()", "4: block under lock"},
		// The loop's head is re-walked until the bit there settles: the
		// post statement runs with the lock held on both the first and the
		// second walk, and is reported once.
		{"held_loop_post_rewalked_once", "for i := 0; i < mode; block() {\ni++\nacquire()\n}", "1: block under lock"},
		{"held_carried_round_loop", "for i := 0; block(); i++ {\nif i > 0 {\n<-ch\nrelease()\n}\nacquire()\n}", "1: block under lock; 3: receive under lock"},
		{"held_range_carried_round_loop", "for range xs {\nacquire()\n}", "1: range under lock"},
		{"held_conditions_and_cases", "acquire()\nif block() {\n}\nswitch x := block(); x {\ncase block():\n}\nrelease()", "2: block under lock; 4: block under lock; 5: block under lock"},
		// A select is reported once, at the select: its comm clause is part
		// of it. Its clause bodies run under the lock.
		{"held_select_not_its_comm", "acquire()\nselect {\ncase v := <-ch:\n_ = v\nblock()\n}\nrelease()", "2: select under lock; 5: block under lock"},
		// Two pending obligations reach the same call: one report.
		{"held_two_obligations_once", "acquire()\nacquire()\nblock()\nrelease()\nrelease()", "3: block under lock"},
		// A function literal's body runs later, not under the lock.
		{"held_func_literal_not_run", "acquire()\nf := func() { block() }\n_ = f\nrelease()", ""},
		{"held_after_panic_path", "acquire()\nif cond {\npanic(\"x\")\n}\nrelease()\nblock()", ""},
	}
	for _, tc := range held {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkBody(t, tc.body, true, true); got != tc.want {
				t.Errorf("got %q, want %q\nbody:\n%s", got, tc.want, tc.body)
			}
		})
	}
}

// FuzzObligationWalk feeds arbitrary function bodies to the engine after
// an acquire() that a defer releases at once. The walk must end without
// panicking whatever the body holds, type errors included, under both
// rules. Under testObRule it must never report that first acquisition:
// the deferred release runs on every exit. Under testHeldRule, with a
// block() after the defer, that call is always reported: the deferred
// release leaves the region open.
func FuzzObligationWalk(f *testing.F) {
	seeds := []string{
		"x := 1\n_ = x",
		"if cond { return }\nreturn",
		"for { break }",
		"L:\nfor i := 0; i < 10; i++ { for { continue L } }",
		"goto done\ndone:",
		"switch x := 1; x { case 1: fallthrough\ncase 2: }",
		"select { case <-ch: default: }",
		"acquire()\nif cond { panic(1) }\nrelease()",
		"return\nmark()",
		"r, err := open()\nif err != nil { return }\ndefer r.Close()",
		"for range xs { switch { default: break } }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		body := "acquire()\ndefer release()\n" + src
		if _, err := parser.ParseFile(token.NewFileSet(), "f.go", obligationPrelude+body+"\n}\n", 0); err != nil {
			t.Skip()
		}
		for _, d := range strings.Split(checkBody(t, body, false, false), "; ") {
			if strings.HasPrefix(d, "1: ") {
				t.Fatalf("deferred release not seen: %s\nbody:\n%s", d, body)
			}
		}
		body = "acquire()\ndefer release()\nblock()\n" + src
		if got := checkBody(t, body, true, false); !slices.Contains(strings.Split(got, "; "), "3: block under lock") {
			t.Fatalf("held rule: got %q, want the block() after the deferred release reported\nbody:\n%s", got, body)
		}
	})
}
