// Package poolrelease enforces the replica-slot invariant that PRs 2 and 3
// each fixed leaks against by hand: every runner obtained from
// analytics.Pool.Acquire must reach Pool.Release on every success path. A leaked slot is invisible until the pool's capacity pins
// and every later run queues forever — production-only symptoms the
// analyzer turns into vet failures.
//
// The analysis is intra-procedural and ownership-aware (the walk itself is
// lintutil.Leaks, shared with spanend):
//
//   - An acquire whose runner value *escapes* the function — returned,
//     stored into a variable/struct/map/channel, captured by a closure, or
//     passed to any function other than Release — transfers ownership and
//     is not flagged; the executor's dispatch paths (internal/core's
//     segment states) hand runners between goroutines this way.
//
//   - Otherwise the runner is locally owned, and a Release (directly or via
//     defer) is required on every path from the acquire to function exit.
//     The failure branch of the acquire (`if err != nil`) is exempt — no
//     runner exists there.
//
//   - A runner assigned to the blank identifier, or an acquire used as a
//     bare expression statement, can never be released and is always
//     reported.
//
// Suppress a deliberate hold (e.g. a test pinning a slot) with
// //lint:ignore poolrelease <reason>.
package poolrelease

import (
	"go/ast"
	"go/types"

	"graphsurge/internal/lint/analysis"
	"graphsurge/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolrelease",
	Doc:  "every analytics.Pool.Acquire success path must reach a Release (defer or all branches)",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	lintutil.EachFuncBody(pass.Files, func(body *ast.BlockStmt) { analyzeBody(pass, body) })
	return nil, nil
}

// analyzeBody checks every acquire lexically inside body but outside any
// nested function literal (literals are analyzed as their own bodies).
func analyzeBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	isAcquire := func(call *ast.CallExpr) bool {
		obj := lintutil.Callee(info, call)
		return obj != nil && lintutil.IsMethodOn(obj, "analytics", "Pool", "Acquire")
	}
	type site struct {
		call  *ast.CallExpr
		owned lintutil.Owned
	}
	var sites []site
	lintutil.EachAcquire(body, isAcquire, func(call *ast.CallExpr) {
		pass.Reportf(call.Pos(), "result of analytics.Pool.Acquire is discarded — the replica slot can never be released")
	}, func(n *ast.AssignStmt, call *ast.CallExpr) {
		if len(n.Lhs) != 3 {
			return
		}
		runner := lintutil.IdentObj(info, n.Lhs[0])
		if runner == nil {
			pass.Reportf(call.Pos(), "runner from analytics.Pool.Acquire assigned to the blank identifier — the replica slot can never be released")
			return
		}
		sites = append(sites, site{call, lintutil.Owned{
			Stmt:      n,
			Obj:       runner,
			Status:    lintutil.IdentObj(info, n.Lhs[2]),
			IsRelease: func(c *ast.CallExpr) bool { return isReleaseCall(info, c, runner) },
		}})
	})
	for _, s := range sites {
		if lintutil.Leaks(info, body, s.owned) {
			pass.Reportf(s.call.Pos(),
				"replica acquired from analytics.Pool.Acquire is not released on every path — add a defer pool.Release or release on each exit")
		}
	}
}

// isReleaseCall reports whether call is Pool.Release with the runner as an
// argument.
func isReleaseCall(info *types.Info, call *ast.CallExpr, runner types.Object) bool {
	obj := lintutil.Callee(info, call)
	if obj == nil || !lintutil.IsMethodOn(obj, "analytics", "Pool", "Release") {
		return false
	}
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == runner {
			return true
		}
	}
	return false
}
