package gvdl

import (
	"fmt"
	"strings"

	"graphsurge/internal/graph"
)

// Statement is a parsed GVDL statement.
type Statement interface {
	stmt()
	String() string
}

// CreateView defines a single filtered view (Listing 1): the edges of the
// target satisfying a predicate over edge and endpoint properties.
type CreateView struct {
	Name  string
	On    string
	Where Expr
}

func (*CreateView) stmt() {}
func (s *CreateView) String() string {
	return fmt.Sprintf("create view %s on %s edges where %s", s.Name, s.On, s.Where)
}

// NamedPredicate is one view of a collection: a label and its edge predicate.
type NamedPredicate struct {
	Name string
	Pred Expr
}

// CreateCollection defines a view collection (Listing 3): an ordered list of
// named predicates, each describing one filtered view over the same target.
type CreateCollection struct {
	Name  string
	On    string
	Views []NamedPredicate
}

func (*CreateCollection) stmt() {}
func (s *CreateCollection) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "create view collection %s on %s", s.Name, s.On)
	for i, v := range s.Views {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " [%s: %s]", v.Name, v.Pred)
	}
	return sb.String()
}

// PropLit is one property assignment in an edge literal.
type PropLit struct {
	Name string
	Val  graph.Value
}

func (p PropLit) String() string {
	if p.Val.Type == graph.TypeString {
		return p.Name + " = " + quote(p.Val.S)
	}
	return fmt.Sprintf("%s = %s", p.Name, p.Val)
}

// quote renders a string literal the lexer reads back as s: backslashes and
// single quotes are escaped.
func quote(s string) string {
	return "'" + strings.NewReplacer(`\`, `\\`, `'`, `\'`).Replace(s) + "'"
}

// EdgeLit is one edge literal in an apply statement: internal node IDs
// joined by '->', with property assignments for inserts.
type EdgeLit struct {
	Src, Dst uint64
	Props    []PropLit
}

func (e EdgeLit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d->%d", e.Src, e.Dst)
	for i, p := range e.Props {
		if i == 0 {
			sb.WriteString(" [")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	if len(e.Props) > 0 {
		sb.WriteByte(']')
	}
	return sb.String()
}

// ApplyMutation mutates a base graph: insert edges (with a value for every
// edge property) and/or delete edges by endpoints, as one transactional
// batch. Node IDs are the graph's internal dense IDs.
//
//	apply insert 2->0 [duration = 5, year = 2020] delete 0->1 to Calls
type ApplyMutation struct {
	On      string
	Inserts []EdgeLit
	Deletes []EdgeLit // property lists unused
}

func (*ApplyMutation) stmt() {}
func (s *ApplyMutation) String() string {
	var sb strings.Builder
	sb.WriteString("apply")
	for i, e := range s.Inserts {
		if i == 0 {
			sb.WriteString(" insert ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(e.String())
	}
	for i, e := range s.Deletes {
		if i == 0 {
			sb.WriteString(" delete ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(e.String())
	}
	fmt.Fprintf(&sb, " to %s", s.On)
	return sb.String()
}

// AggFunc enumerates aggregate functions for aggregate views.
type AggFunc uint8

const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	}
	return "agg?"
}

// Aggregation is one aggregate specification, e.g. total-duration:
// sum(duration). Prop is empty for count(*).
type Aggregation struct {
	OutName string
	Func    AggFunc
	Prop    string
}

func (a Aggregation) String() string {
	arg := a.Prop
	if arg == "" {
		arg = "*"
	}
	if a.OutName != "" {
		return fmt.Sprintf("%s: %s(%s)", a.OutName, a.Func, arg)
	}
	return fmt.Sprintf("%s(%s)", a.Func, arg)
}

// NodeGrouping describes how nodes map to super-nodes: either by the values
// of a list of node properties (group by city) or by membership in an
// ordered list of predicates (group by [(...), (...)]); nodes matching no
// predicate are dropped, as in the paper's NY-Dr-CA-Lawyer example.
type NodeGrouping struct {
	Props      []string
	Predicates []Expr
}

// CreateAggView defines an aggregate view (Listing 4, paper §6).
type CreateAggView struct {
	Name     string
	On       string
	Grouping NodeGrouping
	NodeAggs []Aggregation
	EdgeAggs []Aggregation
}

func (*CreateAggView) stmt() {}
func (s *CreateAggView) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "create view %s on %s nodes group by ", s.Name, s.On)
	if len(s.Grouping.Props) > 0 {
		sb.WriteString(strings.Join(s.Grouping.Props, ", "))
	} else {
		sb.WriteByte('[')
		for i, p := range s.Grouping.Predicates {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%s)", p)
		}
		sb.WriteByte(']')
	}
	for i, a := range s.NodeAggs {
		if i == 0 {
			sb.WriteString(" aggregate ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	for i, a := range s.EdgeAggs {
		if i == 0 {
			sb.WriteString(" edges aggregate ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	return sb.String()
}

// Expr is a boolean predicate expression over edge and endpoint properties.
type Expr interface {
	expr()
	String() string
}

// BoolOp is a logical connective.
type BoolOp uint8

const (
	OpAnd BoolOp = iota
	OpOr
)

// BinaryExpr is a conjunction or disjunction.
type BinaryExpr struct {
	Op   BoolOp
	L, R Expr
}

func (*BinaryExpr) expr() {}
func (e *BinaryExpr) String() string {
	op := "and"
	if e.Op == OpOr {
		op = "or"
	}
	return fmt.Sprintf("(%s %s %s)", e.L, op, e.R)
}

// NotExpr negates a predicate.
type NotExpr struct{ E Expr }

func (*NotExpr) expr()            {}
func (e *NotExpr) String() string { return fmt.Sprintf("(not %s)", e.E) }

// CmpOp is a comparison operator.
type CmpOp uint8

const (
	CmpEq CmpOp = iota
	CmpNeq
	CmpLt
	CmpLeq
	CmpGt
	CmpGeq
)

func (o CmpOp) String() string {
	switch o {
	case CmpEq:
		return "="
	case CmpNeq:
		return "!="
	case CmpLt:
		return "<"
	case CmpLeq:
		return "<="
	case CmpGt:
		return ">"
	case CmpGeq:
		return ">="
	}
	return "?"
}

// Compare is a comparison between two operands.
type Compare struct {
	Op   CmpOp
	L, R Operand
}

func (*Compare) expr()            {}
func (e *Compare) String() string { return fmt.Sprintf("%s %s %s", e.L, e.Op, e.R) }

// OperandKind distinguishes literals from property references.
type OperandKind uint8

const (
	OperandLit OperandKind = iota
	OperandEdgeProp
	OperandSrcProp // src.<prop>: property of the edge's source node
	OperandDstProp // dst.<prop>: property of the edge's destination node
)

// Operand is one side of a comparison.
type Operand struct {
	Kind OperandKind
	Lit  graph.Value // when Kind == OperandLit
	Prop string      // when Kind != OperandLit
	pos  int
}

func (o Operand) String() string {
	switch o.Kind {
	case OperandLit:
		if o.Lit.Type == graph.TypeString {
			return quote(o.Lit.S)
		}
		return o.Lit.String()
	case OperandEdgeProp:
		return o.Prop
	case OperandSrcProp:
		return "src." + o.Prop
	case OperandDstProp:
		return "dst." + o.Prop
	}
	return "?"
}
