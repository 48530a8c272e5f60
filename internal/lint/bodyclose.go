package lint

import (
	"go/ast"
	"go/types"

	"geostat/internal/lint/analysis"
)

// BodyClose verifies that every *http.Response obtained from a call is
// closed (resp.Body.Close()) on every path to function exit, or escapes
// to the caller. An unclosed body leaks the underlying connection and —
// under the load runner's fan-out, or the future geoshard coordinator's
// per-tile requests — exhausts the client's connection pool, turning a
// retry storm into a self-inflicted outage.
//
// Any statically-resolved call with a *net/http.Response result counts
// as an acquisition (client.Do, http.Get, Transport.RoundTrip, and any
// in-module helper that returns a response), so wrapping the client does
// not launder the obligation. The error-result sibling refines paths:
// along `err != nil` there is no response to close.
var BodyClose = &analysis.Analyzer{
	Name: "bodyclose",
	Doc: "every http.Response body is closed on all paths to return " +
		"(or the response escapes to the caller)",
	Run: runBodyClose,
}

func runBodyClose(pass *analysis.Pass) error {
	rule := &obRule{
		acquisitions: func(pass *analysis.Pass, node ast.Node) []*oblig {
			return valueAcquisitions(pass, node,
				func(fn *types.Func, sig *types.Signature) (int, int, string, bool) {
					resIdx, errIdx := -1, -1
					results := sig.Results()
					for i := 0; i < results.Len(); i++ {
						t := results.At(i).Type()
						if isHTTPResponsePtr(t) {
							resIdx = i
						} else if isErrorType(t) {
							errIdx = i
						}
					}
					if resIdx < 0 {
						return 0, 0, "", false
					}
					return resIdx, errIdx, "response body from " + funcKey(fn), true
				},
				func(pass *analysis.Pass, call *ast.CallExpr, what string) {
					pass.Reportf(call.Pos(),
						"%s is discarded without being closed; bind the response and close its body", what)
				})
		},
		isRelease: func(pass *analysis.Pass, call *ast.CallExpr, ob *oblig) bool {
			return bodyCloseCall(pass, call, ob)
		},
		leak: func(ob *oblig) string {
			return ob.what + " is not closed on every path to return; the leaked path holds the connection out of the pool"
		},
	}
	return runObligations(pass, rule)
}

// bodyCloseCall matches `resp.Body.Close()` on the obligation's response.
func bodyCloseCall(pass *analysis.Pass, call *ast.CallExpr, ob *oblig) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	body, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || body.Sel.Name != "Body" {
		return false
	}
	id, ok := ast.Unparen(body.X).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[id] == ob.obj
}

func isHTTPResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
