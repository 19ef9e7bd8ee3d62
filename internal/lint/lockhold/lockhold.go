// Package lockhold enforces lock discipline in the engine's concurrent
// packages (internal/analytics, internal/core, internal/cluster): no
// blocking operation while a sync.Mutex or sync.RWMutex is held.
//
// The engine's mutexes guard small state snapshots (pool slots, worker
// rosters, stat counters) and are taken on hot paths by many goroutines; a
// channel send, pool Acquire, RPC call, or sleep under one turns a
// bounded critical section into an unbounded convoy — and can deadlock
// outright when the blocking operation's completion needs the same lock
// (exactly how a replica-pool stall manifests). sync.Cond.Wait is exempt:
// waiting on a condition variable is *defined* to hold its mutex.
//
// Blocking operations recognized: channel send/receive (including range
// over a channel and select without a default), analytics.Pool.Acquire,
// net/rpc Client.Call, sync.WaitGroup.Wait, and time.Sleep.
//
// The analysis is a per-function, block-structured scan: a lock set is
// carried forward across statements, copied into nested blocks (an unlock
// inside a branch releases only for that branch's remainder), and a
// deferred unlock keeps the mutex held to the end of the function.
// Function literals are not scanned under the caller's lock set — a
// closure built under a lock usually runs after it is released — and
// cross-function lock flow is out of scope. Suppress a deliberate
// blocking hold with //lint:ignore lockhold <reason>.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"graphsurge/internal/lint/analysis"
	"graphsurge/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "no blocking operation (channel op, Pool.Acquire, RPC call, WaitGroup.Wait, time.Sleep) while a sync mutex is held",
	Run:  run,
}

var scopedPackages = []string{"internal/analytics", "internal/core", "internal/cluster"}

func run(pass *analysis.Pass) (interface{}, error) {
	inScope := false
	for _, suffix := range scopedPackages {
		if lintutil.PkgHasSuffix(pass.Pkg, suffix) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil, nil
	}
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.walkStmts(n.Body.List, map[string]token.Pos{})
				}
				return false
			case *ast.FuncLit:
				c.walkStmts(n.Body.List, map[string]token.Pos{})
				return false
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
}

// walkStmts scans one statement list with the given held-lock set. Nested
// blocks get a copy: their lock/unlock operations do not leak back into
// the enclosing list's state.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		c.walkStmt(s, held)
	}
}

func (c *checker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := c.mutexOp(s.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = s.Pos()
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		c.scanBlocking(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held for the rest of the
		// function; any other deferred call runs after the critical
		// section and is not scanned under it.
		return
	case *ast.GoStmt:
		// The spawned goroutine does not run under the caller's locks;
		// only the call's argument expressions are evaluated here.
		for _, arg := range s.Call.Args {
			c.scanBlocking(arg, held)
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, copyHeld(held))
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		c.scanBlocking(s.Cond, held)
		c.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			c.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.scanBlocking(s.Cond, held)
		}
		inner := copyHeld(held)
		if s.Post != nil {
			c.walkStmt(s.Post, inner)
		}
		c.walkStmts(s.Body.List, inner)
	case *ast.RangeStmt:
		if len(held) > 0 {
			if tv, ok := c.pass.TypesInfo.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					c.report(s.Pos(), "range over a channel", held)
				}
			}
		}
		c.scanBlocking(s.X, held)
		c.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.scanBlocking(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CaseClause); ok {
				c.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			c.report(s.Pos(), "select with no default case", held)
		}
		for _, cc := range s.Body.List {
			if cc, ok := cc.(*ast.CommClause); ok {
				c.walkStmts(cc.Body, copyHeld(held))
			}
		}
	default:
		c.scanBlocking(s, held)
	}
}

// scanBlocking reports every blocking operation in the subtree while any
// lock is held. Function literals are skipped (they execute later).
func (c *checker) scanBlocking(n ast.Node, held map[string]token.Pos) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			c.report(n.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.report(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if desc, ok := c.blockingCall(n); ok {
				c.report(n.Pos(), desc, held)
			}
		}
		return true
	})
}

// blockingCall classifies a call as one of the recognized blocking
// operations.
func (c *checker) blockingCall(call *ast.CallExpr) (string, bool) {
	obj := lintutil.Callee(c.pass.TypesInfo, call)
	if obj == nil {
		return "", false
	}
	switch {
	case obj.Pkg() != nil && lintutil.PkgHasSuffix(obj.Pkg(), "time") && obj.Name() == "Sleep":
		return "time.Sleep", true
	case lintutil.IsMethodOn(obj, "analytics", "Pool", "Acquire"):
		return "analytics.Pool.Acquire", true
	case lintutil.IsMethodOn(obj, "net/rpc", "Client", "Call"):
		return "rpc.Client.Call", true
	case lintutil.IsMethodOn(obj, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait", true
	}
	return "", false
}

// mutexOp recognizes a direct Lock/RLock/Unlock/RUnlock call on a
// sync-package mutex (including one reached through an embedded field or
// the sync.Locker interface), returning a stable key for the lock
// expression.
func (c *checker) mutexOp(x ast.Expr) (key, op string, ok bool) {
	call, isCall := x.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj := lintutil.Callee(c.pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch obj.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	// Exclude sync.Cond: cond.L.Lock patterns resolve to Locker, fine,
	// but Cond itself has no Lock methods, so nothing to do.
	return types.ExprString(sel.X), obj.Name(), true
}

func (c *checker) report(pos token.Pos, what string, held map[string]token.Pos) {
	// Name one held mutex deterministically (the smallest key) so the
	// message is stable when several are held.
	var key string
	for k := range held {
		if key == "" || k < key {
			key = k
		}
	}
	lock := c.pass.Fset.Position(held[key])
	c.pass.Reportf(pos, "blocking %s while holding %s (locked at line %d)", what, key, lock.Line)
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if cc, ok := cc.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
