package gvdl

import (
	"fmt"

	"graphsurge/internal/graph"
)

// The row-at-a-time closure compiler the set compiler replaced, kept as the
// reference its programs are held to bit for bit: every predicate compiles
// to its own closure tree, and each leaf boxes both operands into a
// graph.Value and switches on type, then on operator.

// valueGetter produces an operand's value for row i.
type valueGetter struct {
	typ graph.PropType
	get func(i int) graph.Value
}

// compileCtx resolves property references for a particular evaluation
// context (edge predicates vs node predicates).
type compileCtx struct {
	resolve func(o Operand) (valueGetter, error)
}

// refCompileEdge compiles an expression into a predicate over the graph's
// edges. Operands may reference edge properties (bare names) and endpoint
// node properties (src.name, dst.name).
func refCompileEdge(g *graph.Graph, e Expr) (func(int) bool, error) {
	ctx := &compileCtx{resolve: func(o Operand) (valueGetter, error) {
		switch o.Kind {
		case OperandLit:
			lit := o.Lit
			return valueGetter{typ: lit.Type, get: func(int) graph.Value { return lit }}, nil
		case OperandEdgeProp:
			ci, ok := g.EdgeProps.ColumnIndex(o.Prop)
			if !ok {
				return valueGetter{}, fmt.Errorf("no edge property %q on graph %s", o.Prop, g.Name)
			}
			col := &g.EdgeProps.Cols[ci]
			return valueGetter{typ: col.Type, get: col.Value}, nil
		case OperandSrcProp, OperandDstProp:
			ci, ok := g.NodeProps.ColumnIndex(o.Prop)
			if !ok {
				return valueGetter{}, fmt.Errorf("no node property %q on graph %s", o.Prop, g.Name)
			}
			col := &g.NodeProps.Cols[ci]
			ends := g.Srcs
			if o.Kind == OperandDstProp {
				ends = g.Dsts
			}
			return valueGetter{typ: col.Type, get: func(i int) graph.Value {
				return col.Value(int(ends[i]))
			}}, nil
		}
		return valueGetter{}, fmt.Errorf("unknown operand kind %d", o.Kind)
	}}
	return compileExpr(ctx, e)
}

// refCompileNode compiles an expression into a predicate over the graph's
// nodes. Only bare property names are legal.
func refCompileNode(g *graph.Graph, e Expr) (func(int) bool, error) {
	ctx := &compileCtx{resolve: func(o Operand) (valueGetter, error) {
		switch o.Kind {
		case OperandLit:
			lit := o.Lit
			return valueGetter{typ: lit.Type, get: func(int) graph.Value { return lit }}, nil
		case OperandEdgeProp: // bare name: node property in node context
			ci, ok := g.NodeProps.ColumnIndex(o.Prop)
			if !ok {
				return valueGetter{}, fmt.Errorf("no node property %q on graph %s", o.Prop, g.Name)
			}
			col := &g.NodeProps.Cols[ci]
			return valueGetter{typ: col.Type, get: col.Value}, nil
		default:
			return valueGetter{}, fmt.Errorf("src./dst. references are not allowed in node predicates")
		}
	}}
	return compileExpr(ctx, e)
}

func compileExpr(ctx *compileCtx, e Expr) (func(int) bool, error) {
	switch e := e.(type) {
	case *BinaryExpr:
		l, err := compileExpr(ctx, e.L)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(ctx, e.R)
		if err != nil {
			return nil, err
		}
		if e.Op == OpAnd {
			return func(i int) bool { return l(i) && r(i) }, nil
		}
		return func(i int) bool { return l(i) || r(i) }, nil
	case *NotExpr:
		f, err := compileExpr(ctx, e.E)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return !f(i) }, nil
	case *Compare:
		return compileCompare(ctx, e)
	case Func:
		return e, nil
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func compileCompare(ctx *compileCtx, e *Compare) (func(int) bool, error) {
	l, err := ctx.resolve(e.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.resolve(e.R)
	if err != nil {
		return nil, err
	}
	if l.typ != r.typ {
		return nil, fmt.Errorf("type mismatch in %q: %s vs %s", e, l.typ, r.typ)
	}
	if l.typ == graph.TypeBool && e.Op != CmpEq && e.Op != CmpNeq {
		return nil, fmt.Errorf("boolean operands in %q only support = and !=", e)
	}
	op := e.Op
	lt, lg, rg := l.typ, l.get, r.get
	return func(i int) bool {
		a, b := lg(i), rg(i)
		var cmp int
		switch lt {
		case graph.TypeInt:
			switch {
			case a.I < b.I:
				cmp = -1
			case a.I > b.I:
				cmp = 1
			}
		case graph.TypeString:
			switch {
			case a.S < b.S:
				cmp = -1
			case a.S > b.S:
				cmp = 1
			}
		default:
			if a.B != b.B {
				cmp = 1
			}
		}
		switch op {
		case CmpEq:
			return cmp == 0
		case CmpNeq:
			return cmp != 0
		case CmpLt:
			return cmp < 0
		case CmpLeq:
			return cmp <= 0
		case CmpGt:
			return cmp > 0
		default:
			return cmp >= 0
		}
	}, nil
}
