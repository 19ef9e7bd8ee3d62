package lintutil

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the ownership-aware path walk shared by the acquire/release
// analyzers (poolrelease, spanend). An analyzer describes one locally bound
// resource — the statement that acquires it, its variable, what counts as
// releasing it — and Leaks answers whether some path from the acquire to
// function exit drops it. The analysis is intra-procedural:
//
//   - A resource whose value *escapes* the function — returned, stored into
//     a variable/struct/map/channel, captured by a closure, or passed to any
//     call that is not its release — transfers ownership and never leaks
//     here. Calling methods on it and comparing it are uses, not escapes;
//     unknown contexts count as escapes, biasing toward silence over false
//     leak reports.
//
//   - Otherwise the resource is locally owned, and the walk requires a
//     release (directly or via defer) on every path. Each path's outcome is
//     tracked as a set — a branch that leaves via continue/break does not
//     get credit for a release later in the block. When the acquire has a
//     status variable, its failure branch (`if err != nil`, `if !ok`) is
//     recognized and exempt: no resource exists there.

// Owned is one locally bound resource.
type Owned struct {
	Stmt ast.Stmt     // the statement that acquires it
	Obj  types.Object // the variable holding it
	// Status is the acquire's err/ok result variable, or nil when the acquire
	// cannot fail (or the result is blank): paths guarded by its failure
	// carry no resource.
	Status types.Object
	// IsRelease reports whether call releases the resource held in Obj.
	IsRelease func(call *ast.CallExpr) bool
}

// EachFuncBody calls fn with every function body in the files, declarations
// and literals alike — each is analyzed as its own frame.
func EachFuncBody(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// EachAcquire finds the acquire calls lexically inside body but outside any
// nested function literal: discarded receives a call used as a bare
// expression statement, bound a call that is the sole right-hand side of an
// assignment.
func EachAcquire(body *ast.BlockStmt, isAcquire func(*ast.CallExpr) bool, discarded func(*ast.CallExpr), bound func(*ast.AssignStmt, *ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isAcquire(call) {
				discarded(call)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isAcquire(call) {
				bound(n, call)
			}
		}
		return true
	})
}

// IdentObj resolves an assignment target to its variable, or nil for the
// blank identifier and non-identifier targets.
func IdentObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// Leaks reports whether the resource is locally owned by the function with
// the given body and some path from its acquire to function exit does not
// release it.
func Leaks(info *types.Info, body *ast.BlockStmt, o Owned) bool {
	w := &walk{info: info, o: o}
	if w.escapes(body) {
		return false
	}
	found, st := w.seek(body.List)
	return found && st&^released != 0
}

type walk struct {
	info *types.Info
	o    Owned
}

// escapes reports whether the resource's ownership can leave the function:
// any use of its identifier other than method calls on it, comparisons,
// reassignment, or its release.
func (w *walk) escapes(body *ast.BlockStmt) bool {
	esc := false
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok && !esc && w.info.Uses[id] == w.o.Obj {
			esc = w.useEscapes(stack, id)
		}
		return true
	})
	return esc
}

// useEscapes classifies one use of the resource identifier. stack holds the
// ancestors of id, innermost last (id itself on top).
func (w *walk) useEscapes(stack []ast.Node, id *ast.Ident) bool {
	// A reference from inside a function literal outlives this frame.
	for _, anc := range stack[:len(stack)-1] {
		if _, ok := anc.(*ast.FuncLit); ok {
			return true
		}
	}
	// Parent and grandparent, looking through parentheses.
	var near [2]ast.Node
	for i, n := len(stack)-2, 0; i >= 0 && n < 2; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			near[n] = stack[i]
			n++
		}
	}
	switch p := near[0].(type) {
	case *ast.SelectorExpr:
		// r.Step() is a use; r.Step as a method value escapes.
		call, ok := near[1].(*ast.CallExpr)
		return !ok || ast.Unparen(call.Fun) != p
	case *ast.CallExpr:
		// The resource as an argument: only its release keeps ownership
		// local; any other callee takes it over.
		return !w.o.IsRelease(p)
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == id {
				return false // reassignment of the variable itself
			}
		}
		return true // on the right-hand side it is stored somewhere
	case *ast.BinaryExpr, *ast.SwitchStmt, *ast.CaseClause:
		return false // comparisons (r == nil, switch r { case other: })
	}
	return true
}

// pathSet is a set of outcomes over the executions flowing from a point.
type pathSet uint8

const (
	fallthru pathSet = 1 << iota // control continues past the statement list
	released                     // a release (or deferred release) happened
	leaked                       // function exit without a release
	broke                        // left the nearest loop/switch via break
	cont                         // ended the loop iteration via continue
)

// seek locates the acquire statement within list (possibly nested) and
// returns the outcome set of all executions from just after it.
func (w *walk) seek(list []ast.Stmt) (bool, pathSet) {
	for i, s := range list {
		if s == w.o.Stmt {
			return true, w.checkStmts(list[i+1:])
		}
		if !contains(s, w.o.Stmt) {
			continue
		}
		found, st := w.seekStmt(s)
		if !found {
			continue
		}
		if st&fallthru != 0 {
			st = (st &^ fallthru) | w.checkStmts(list[i+1:])
		}
		return true, st
	}
	return false, 0
}

func (w *walk) seekStmt(s ast.Stmt) (bool, pathSet) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.seek(s.List)
	case *ast.LabeledStmt:
		return w.seekStmt(s.Stmt)
	case *ast.IfStmt:
		if s.Init == w.o.Stmt {
			// if r, _, err := pool.Acquire(ctx); err == nil { ... }
			return true, w.checkStmt(&ast.IfStmt{Cond: s.Cond, Body: s.Body, Else: s.Else})
		}
		if contains(s.Body, w.o.Stmt) {
			return w.seek(s.Body.List)
		}
		if s.Else != nil && contains(s.Else, w.o.Stmt) {
			return w.seekStmt(s.Else)
		}
		return false, 0
	case *ast.ForStmt:
		return w.seekLoop(s.Body)
	case *ast.RangeStmt:
		return w.seekLoop(s.Body)
	case *ast.SwitchStmt:
		return w.seekCases(s.Body)
	case *ast.TypeSwitchStmt:
		return w.seekCases(s.Body)
	case *ast.SelectStmt:
		return w.seekCases(s.Body)
	}
	return false, 0
}

// seekLoop maps iteration outcomes to the loop boundary for an acquire
// inside the loop body: any way the iteration ends without a release —
// falling through to the next iteration, continue, or break (the resource
// is scoped to the iteration) — abandons that iteration's resource.
func (w *walk) seekLoop(body *ast.BlockStmt) (bool, pathSet) {
	found, st := w.seek(body.List)
	if !found {
		return false, 0
	}
	out := st & (released | leaked)
	if st&(fallthru|cont|broke) != 0 {
		out |= leaked
	}
	return true, out
}

// seekCases finds the case body holding the acquire; break exits the
// switch/select, so it becomes fallthru at this level.
func (w *walk) seekCases(body *ast.BlockStmt) (bool, pathSet) {
	for _, clause := range body.List {
		stmts := clauseBody(clause)
		inside := false
		for _, s := range stmts {
			inside = inside || contains(s, w.o.Stmt)
		}
		if !inside {
			continue
		}
		found, st := w.seek(stmts)
		if !found {
			continue
		}
		if st&broke != 0 {
			st = (st &^ broke) | fallthru
		}
		return true, st
	}
	return false, 0
}

// checkStmts computes the outcome set of a statement list: outcomes that
// stop a path (release, exit, break, continue) accumulate; only fallthru
// paths flow into the next statement.
func (w *walk) checkStmts(list []ast.Stmt) pathSet {
	if len(list) == 0 {
		return fallthru
	}
	st := w.checkStmt(list[0])
	out := st &^ fallthru
	if st&fallthru != 0 {
		out |= w.checkStmts(list[1:])
	}
	return out
}

func (w *walk) checkStmt(s ast.Stmt) pathSet {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.o.IsRelease(call) {
			return released
		}
		return fallthru
	case *ast.DeferStmt:
		if w.o.IsRelease(s.Call) {
			return released
		}
		return fallthru
	case *ast.ReturnStmt:
		return leaked
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return broke
		case token.CONTINUE:
			return cont
		case token.GOTO:
			return leaked // cannot track the jump target
		}
		return fallthru
	case *ast.BlockStmt:
		return w.checkStmts(s.List)
	case *ast.LabeledStmt:
		return w.checkStmt(s.Stmt)
	case *ast.IfStmt:
		return w.checkIf(s)
	case *ast.ForStmt:
		body := w.checkStmts(s.Body.List)
		out := body & (leaked | released)
		// The loop is left unreleased when it can run zero times or an
		// iteration path exits it without a release.
		if s.Cond != nil || body&(fallthru|cont|broke) != 0 {
			out |= fallthru
		}
		if out == 0 {
			out = fallthru
		}
		return out
	case *ast.RangeStmt:
		body := w.checkStmts(s.Body.List)
		return (body & (leaked | released)) | fallthru
	case *ast.SwitchStmt:
		return w.checkCases(s.Body, hasDefaultCase(s.Body))
	case *ast.TypeSwitchStmt:
		return w.checkCases(s.Body, hasDefaultCase(s.Body))
	case *ast.SelectStmt:
		// A select with no default still executes exactly one case.
		return w.checkCases(s.Body, true)
	}
	return fallthru
}

// checkIf evaluates an if-statement after the acquire. The acquire's own
// status guard splits success from failure: failure paths carry no resource
// and are dropped from the outcome set entirely.
func (w *walk) checkIf(s *ast.IfStmt) pathSet {
	switch w.guard(s.Cond) {
	case guardFailure:
		if s.Else != nil {
			return w.checkStmt(s.Else) // success lives in the else arm
		}
		return fallthru // success continues after the if
	case guardSuccess:
		return w.checkStmts(s.Body.List)
	}
	out := w.checkStmts(s.Body.List)
	if s.Else != nil {
		out |= w.checkStmt(s.Else)
	} else {
		out |= fallthru
	}
	return out
}

func (w *walk) checkCases(body *ast.BlockStmt, exhaustive bool) pathSet {
	var out pathSet
	seen := false
	for _, clause := range body.List {
		stmts := clauseBody(clause)
		if stmts == nil {
			continue
		}
		seen = true
		cs := w.checkStmts(stmts)
		if cs&broke != 0 {
			cs = (cs &^ broke) | fallthru // break exits the switch
		}
		out |= cs
	}
	if !exhaustive || !seen {
		out |= fallthru
	}
	return out
}

type guardKind int

const (
	guardNone guardKind = iota
	guardFailure
	guardSuccess
)

// guard classifies an if condition relative to the acquire's status
// variable: `err != nil` / `!ok` guard the failure path, `err == nil` /
// `ok` the success path.
func (w *walk) guard(cond ast.Expr) guardKind {
	if w.o.Status == nil {
		return guardNone
	}
	isStatus := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && w.info.Uses[id] == w.o.Status
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, isNil := w.info.Uses[id].(*types.Nil)
		return isNil
	}
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if !(isStatus(c.X) && isNil(c.Y)) && !(isStatus(c.Y) && isNil(c.X)) {
			return guardNone
		}
		switch c.Op {
		case token.NEQ:
			return guardFailure // err != nil
		case token.EQL:
			return guardSuccess // err == nil
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT && isStatus(c.X) {
			return guardFailure // !ok
		}
	case *ast.Ident:
		if isStatus(c) {
			return guardSuccess // ok
		}
	}
	return guardNone
}

func clauseBody(clause ast.Stmt) []ast.Stmt {
	switch c := clause.(type) {
	case *ast.CaseClause:
		return c.Body
	case *ast.CommClause:
		return c.Body
	}
	return nil
}

func contains(outer ast.Node, inner ast.Stmt) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}

func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}
