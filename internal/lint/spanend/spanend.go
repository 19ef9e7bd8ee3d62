// Package spanend enforces the span-lifecycle invariant the observability
// layer depends on: every span started with obs.StartSpan must reach
// Span.End on every path. An unended span stays open in its trace forever —
// the span tree renders it as "open", OpenSpans never returns to zero, and
// the cancellation tests that assert canceled runs close their spans turn
// red only if the leak happens to be on the exercised path. The analyzer
// turns the invariant into a vet failure at the unexercised ones too.
//
// The analysis is poolrelease's ownership-aware path walk (lintutil.Leaks)
// with a span as the resource and no failure branch:
//
//   - A span that *escapes* the function — returned, stored into a
//     variable/struct/map/channel, captured by a closure, or passed to any
//     function — transfers ownership and is not flagged; the executor
//     stores segment spans on segmentExec and ends them in releaseSeg, the
//     single choke point every lifecycle path goes through.
//
//   - Otherwise the span is locally owned, and an End (directly or via
//     defer) is required on every path from the StartSpan to function exit.
//
//   - A span assigned to the blank identifier, or a StartSpan used as a
//     bare expression statement, can never be ended and is always reported.
//     (StartSpan returns a nil no-op span on untraced contexts and End is
//     nil-safe, so "it would be a no-op anyway" is never a reason to skip
//     the End.)
//
// Method calls on the span (SetAttr) and comparisons are uses, not escapes.
// Suppress a deliberate hold with //lint:ignore spanend <reason>.
package spanend

import (
	"go/ast"
	"go/types"

	"graphsurge/internal/lint/analysis"
	"graphsurge/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "every span from obs.StartSpan must reach Span.End on every path (defer or all branches)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	lintutil.EachFuncBody(pass.Files, func(body *ast.BlockStmt) { analyzeBody(pass, body) })
	return nil, nil
}

// analyzeBody checks every StartSpan lexically inside body but outside any
// nested function literal (literals are analyzed as their own bodies).
func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	isStart := func(call *ast.CallExpr) bool { return isStartSpan(info, call) }
	type site struct {
		call  *ast.CallExpr
		owned lintutil.Owned
	}
	var sites []site
	lintutil.EachAcquire(body, isStart, func(call *ast.CallExpr) {
		pass.Reportf(call.Pos(), "result of obs.StartSpan is discarded — the span can never be ended")
	}, func(n *ast.AssignStmt, call *ast.CallExpr) {
		if len(n.Lhs) != 2 {
			return
		}
		span := lintutil.IdentObj(info, n.Lhs[1])
		if span == nil {
			pass.Reportf(call.Pos(), "span from obs.StartSpan assigned to the blank identifier — the span can never be ended")
			return
		}
		sites = append(sites, site{call, lintutil.Owned{
			Stmt:      n,
			Obj:       span,
			IsRelease: func(c *ast.CallExpr) bool { return isEndCall(info, c, span) },
		}})
	})
	for _, s := range sites {
		if lintutil.Leaks(info, body, s.owned) {
			pass.Reportf(s.call.Pos(),
				"span started with obs.StartSpan is not ended on every path — add a defer span.End() or end on each exit")
		}
	}
}

// isStartSpan reports whether call invokes obs.StartSpan.
func isStartSpan(info *types.Info, call *ast.CallExpr) bool {
	obj := lintutil.Callee(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "StartSpan" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return lintutil.PkgHasSuffix(fn.Pkg(), "obs")
}

// isEndCall reports whether call is span.End() on the site's span variable.
func isEndCall(info *types.Info, call *ast.CallExpr, span types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := lintutil.Callee(info, call)
	if obj == nil || !lintutil.IsMethodOn(obj, "obs", "Span", "End") {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == span
}
