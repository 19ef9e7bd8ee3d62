package gvdl

import (
	"cmp"
	"fmt"

	"graphsurge/internal/graph"
)

// Compilation of predicates against a graph schema: a Program evaluates each
// distinct comparison once, by a typed loop over its columns, into a bitset
// and folds every predicate from those word by word. It reads the column
// slices it resolved: compile again after a mutation appends to them.

// Func is a programmatic predicate over row indices: an expression with no
// GVDL source form, compiled as one opaque atom evaluated row by row.
type Func func(i int) bool

func (Func) expr()          {}
func (Func) String() string { return "<func>" }

// Program is a list of predicates compiled over the edges (NewEdgeSet) or
// the nodes (NewNodeSet) of one graph. Once built, Eval may run concurrently.
type Program struct {
	g     *graph.Graph
	edges bool
	keys  map[Compare]int // atoms of comparisons, keyed without source positions
	atoms []func(i int) bool
	code  [][]int // per predicate, postfix: atom indices and the operators below
}

const (
	opNot = -1 - iota
	opAnd // opAnd - int(OpOr) is opOr
	opOr
)

// NewEdgeSet starts a program over g's edges: operands may reference edge
// properties (bare names) and endpoint node properties (src.name, dst.name).
func NewEdgeSet(g *graph.Graph) *Program { return &Program{g: g, edges: true, keys: map[Compare]int{}} }

// NewNodeSet starts a program over g's nodes, named by bare names.
func NewNodeSet(g *graph.Graph) *Program { return &Program{g: g, keys: map[Compare]int{}} }

// Add compiles one more predicate, sharing the atoms it has in common with
// those already added. A program whose Add failed must not be evaluated.
func (p *Program) Add(e Expr) error {
	code, err := p.compile(e, nil)
	if err == nil {
		p.code = append(p.code, code)
	}
	return err
}

func (p *Program) compile(e Expr, code []int) ([]int, error) {
	var err error
	switch e := e.(type) {
	case *BinaryExpr:
		if code, err = p.compile(e.L, code); err == nil {
			code, err = p.compile(e.R, code)
		}
		return append(code, opAnd-int(e.Op)), err
	case *NotExpr:
		code, err = p.compile(e.E, code)
		return append(code, opNot), err
	case *Compare:
		key := *e
		key.L.pos, key.R.pos = 0, 0
		a, ok := p.keys[key]
		if !ok {
			f, err := p.comparison(e)
			if err != nil {
				return nil, err
			}
			a, p.keys[key] = len(p.atoms), len(p.atoms)
			p.atoms = append(p.atoms, f)
		}
		return append(code, a), nil
	case Func:
		p.atoms = append(p.atoms, e)
		return append(code, len(p.atoms)-1), nil
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

// ref is a resolved comparison operand: a literal (no column), or a column
// read at the row — through ends, at the row's source or destination node.
type ref struct {
	col  graph.Column
	ends []uint64
	lit  graph.Value
}

func (p *Program) resolve(o Operand) (ref, error) {
	if o.Kind == OperandLit {
		return ref{col: graph.Column{Type: o.Lit.Type}, lit: o.Lit}, nil
	}
	pt, what := p.g.NodeProps, "node"
	var ends []uint64
	switch {
	case !p.edges && o.Kind != OperandEdgeProp:
		return ref{}, fmt.Errorf("src./dst. references are not allowed in node predicates")
	case !p.edges: // bare name: node property in node context
	case o.Kind == OperandEdgeProp:
		pt, what = p.g.EdgeProps, "edge"
	case o.Kind == OperandSrcProp:
		ends = p.g.Srcs
	case o.Kind == OperandDstProp:
		ends = p.g.Dsts
	default:
		return ref{}, fmt.Errorf("unknown operand kind %d", o.Kind)
	}
	ci, ok := pt.ColumnIndex(o.Prop)
	if !ok {
		return ref{}, fmt.Errorf("no %s property %q on graph %s", what, o.Prop, p.g.Name)
	}
	return ref{col: pt.Cols[ci], ends: ends}, nil
}

// outcomes[op][c+1] is op's result for operands that compare as c.
var outcomes = [...][3]bool{
	CmpEq:  {false, true, false},
	CmpNeq: {true, false, true},
	CmpLt:  {true, false, false},
	CmpLeq: {true, true, false},
	CmpGt:  {false, false, true},
	CmpGeq: {false, true, true},
}

// comparison type-checks a comparison and compiles it to its typed loop.
func (p *Program) comparison(e *Compare) (func(i int) bool, error) {
	l, lerr := p.resolve(e.L)
	r, rerr := p.resolve(e.R)
	if err := cmp.Or(lerr, rerr); err != nil {
		return nil, err
	}
	switch want := outcomes[e.Op]; {
	case l.col.Type != r.col.Type:
		return nil, fmt.Errorf("type mismatch in %q: %s vs %s", e, l.col.Type, r.col.Type)
	case l.col.Type == graph.TypeInt:
		return compared(typed(l, l.col.Ints, l.lit.I), typed(r, r.col.Ints, r.lit.I), cmp.Compare[int64], want), nil
	case l.col.Type == graph.TypeString:
		return compared(typed(l, l.col.Strs, l.lit.S), typed(r, r.col.Strs, r.lit.S), cmp.Compare[string], want), nil
	case e.Op != CmpEq && e.Op != CmpNeq:
		return nil, fmt.Errorf("boolean operands in %q only support = and !=", e)
	default:
		differ := func(a, b bool) int {
			if a == b {
				return 0
			}
			return 1
		}
		return compared(typed(l, l.col.Bools, l.lit.B), typed(r, r.col.Bools, r.lit.B), differ, want), nil
	}
}

// operand is a ref with its column typed: the literal when col is nil.
type operand[T any] struct {
	col  []T
	ends []uint64
	lit  T
}

func typed[T any](r ref, col []T, lit T) operand[T] { return operand[T]{col, r.ends, lit} }

func (o *operand[T]) at(i int) T {
	switch {
	case o.col == nil:
		return o.lit
	case o.ends != nil:
		return o.col[o.ends[i]]
	}
	return o.col[i]
}

// compared is the typed test of every comparison at a row: both operands
// read, compared, and the outcome looked up for the operator.
func compared[T any](l, r operand[T], compare func(a, b T) int, want [3]bool) func(i int) bool {
	return func(i int) bool { return want[compare(l.at(i), r.at(i))+1] }
}

// scan writes the rows of [lo, hi) that holds is true of into dst, whose
// word 0 covers the rows of word lo/64.
func scan(lo, hi int, dst []uint64, holds func(i int) bool) {
	clear(dst)
	for i := lo; i < hi; i++ {
		if holds(i) {
			dst[i>>6-lo>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Eval evaluates every predicate over rows [lo, hi), whose bits in out must
// be zero: each atom once, then each predicate folded word-wise from them
// into its bitset in out (in Add order), setting the rows it holds on that
// keep (nil: every row) has and drop (a bitmap read as zero past its end)
// does not. Other bits are left alone, so disjoint word-aligned ranges of the
// same outputs may be evaluated concurrently.
func (p *Program) Eval(lo, hi int, keep *graph.Bitset, drop []uint64, out []*graph.Bitset) {
	w0, nw := lo>>6, (hi+63)>>6-lo>>6
	words := func() []uint64 { return make([]uint64, nw) }
	kept, atoms, stack := words(), make([][]uint64, len(p.atoms)), [][]uint64{}
	scan(lo, hi, kept, func(int) bool { return true })
	for i := range kept {
		if keep != nil {
			kept[i] &= keep.Words()[w0+i]
		}
		if w0+i < len(drop) {
			kept[i] &^= drop[w0+i]
		}
	}
	for a, holds := range p.atoms {
		atoms[a] = words()
		scan(lo, hi, atoms[a], holds)
	}
	for j, code := range p.code {
		sp := 0 // stack[:sp] holds the operands
		for _, op := range code {
			switch {
			case op == opNot:
				for i, w := range stack[sp-1] {
					stack[sp-1][i] = ^w
				}
			case op < 0:
				sp--
				for i, w := range stack[sp] {
					if op == opAnd {
						stack[sp-1][i] &= w
					} else {
						stack[sp-1][i] |= w
					}
				}
			default:
				if sp == len(stack) {
					stack = append(stack, words())
				}
				copy(stack[sp], atoms[op])
				sp++
			}
		}
		for i, w := range stack[0] {
			out[j].Words()[w0+i] |= w & kept[i]
		}
	}
}
