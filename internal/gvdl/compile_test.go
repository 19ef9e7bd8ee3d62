package gvdl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphsurge/internal/graph"
)

// The set compiler is held to the reference closure compiler (ref_test.go)
// bit for bit: on random graphs with tombstones, for random predicate lists
// whose atoms repeat across predicates, over random row ranges that are not
// word-aligned, with the rows outside the range left untouched.

var (
	propSuffix = []string{"i", "s", "b"} // by graph.PropType
	strPool    = []string{"", "a", "ab", "b", "c"}
)

func randValue(r *rand.Rand, typ graph.PropType) graph.Value {
	switch typ {
	case graph.TypeInt:
		return graph.IntValue(int64(r.Intn(7) - 1))
	case graph.TypeString:
		return graph.StringValue(strPool[r.Intn(len(strPool))])
	}
	return graph.BoolValue(r.Intn(2) == 1)
}

// randGraph builds a graph whose nodes carry ni/ns/nb and whose edges carry
// ei/es/eb (int, string, bool), with about a fifth of the edges tombstoned.
func randGraph(r *rand.Rand) *graph.Graph {
	defs := func(prefix string) []graph.PropDef {
		return []graph.PropDef{{Name: prefix + "i", Type: graph.TypeInt}, {Name: prefix + "s", Type: graph.TypeString}, {Name: prefix + "b", Type: graph.TypeBool}}
	}
	g := &graph.Graph{Name: "g", NumNodes: 1 + r.Intn(40), NodeProps: graph.NewPropTable(defs("n")), EdgeProps: graph.NewPropTable(defs("e"))}
	row := func() []graph.Value {
		return []graph.Value{randValue(r, graph.TypeInt), randValue(r, graph.TypeString), randValue(r, graph.TypeBool)}
	}
	for n := 0; n < g.NumNodes; n++ {
		if err := g.NodeProps.AppendRow(row()); err != nil {
			panic(err)
		}
	}
	edges := r.Intn(300)
	g.DeadWords = make([]uint64, (edges+63)/64)
	for i := 0; i < edges; i++ {
		g.Srcs = append(g.Srcs, uint64(r.Intn(g.NumNodes)))
		g.Dsts = append(g.Dsts, uint64(r.Intn(g.NumNodes)))
		if err := g.EdgeProps.AppendRow(row()); err != nil {
			panic(err)
		}
		if r.Intn(5) == 0 {
			g.DeadWords[i>>6] |= 1 << (uint(i) & 63)
			g.NumDead++
		}
	}
	return g
}

// randCompare draws a well-typed comparison: literals, edge properties and
// src./dst. properties on either side in edge context, literals and bare
// (node) properties in node context.
func randCompare(r *rand.Rand, edges bool) *Compare {
	typ := graph.PropType(r.Intn(3))
	operand := func() Operand {
		kinds := []OperandKind{OperandLit, OperandEdgeProp}
		if edges {
			kinds = append(kinds, OperandSrcProp, OperandDstProp)
		}
		switch k := kinds[r.Intn(len(kinds))]; {
		case k == OperandLit:
			return Operand{Kind: k, Lit: randValue(r, typ)}
		case k == OperandEdgeProp && edges:
			return Operand{Kind: k, Prop: "e" + propSuffix[typ]}
		default:
			return Operand{Kind: k, Prop: "n" + propSuffix[typ]}
		}
	}
	op := CmpOp(r.Intn(6))
	if typ == graph.TypeBool {
		op = CmpOp(r.Intn(2))
	}
	return &Compare{Op: op, L: operand(), R: operand()}
}

// randPreds draws one to six and/or/not trees up to depth 4 whose leaves
// come mostly from a small pool, so atoms repeat across predicates.
func randPreds(r *rand.Rand, edges bool) []Expr {
	pool := make([]*Compare, 1+r.Intn(5))
	for i := range pool {
		pool[i] = randCompare(r, edges)
	}
	var gen func(depth int) Expr
	gen = func(depth int) Expr {
		if depth == 0 || r.Intn(3) == 0 {
			if r.Intn(4) == 0 {
				return randCompare(r, edges)
			}
			c := *pool[r.Intn(len(pool))]
			return &c
		}
		switch r.Intn(3) {
		case 0:
			return &NotExpr{E: gen(depth - 1)}
		case 1:
			return &BinaryExpr{Op: OpAnd, L: gen(depth - 1), R: gen(depth - 1)}
		}
		return &BinaryExpr{Op: OpOr, L: gen(depth - 1), R: gen(depth - 1)}
	}
	preds := make([]Expr, 1+r.Intn(6))
	for i := range preds {
		preds[i] = gen(4)
	}
	return preds
}

// collectionSrc renders edge predicates as one collection statement, so
// parsing them back gives each repeated atom its own source position.
func collectionSrc(preds []Expr) string {
	var b strings.Builder
	b.WriteString("create view collection c on g")
	for i, p := range preds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " [v%d: %s]", i, p)
	}
	return b.String()
}

// reparse renders predicates and parses them back: as a collection's views
// in edge context, as an aggregate view's groups in node context.
func reparse(t *testing.T, preds []Expr, edges bool) []Expr {
	t.Helper()
	src := collectionSrc(preds)
	if !edges {
		parts := make([]string, len(preds))
		for i, p := range preds {
			parts[i] = fmt.Sprintf("(%s)", p)
		}
		src = "create view a on g nodes group by [" + strings.Join(parts, ", ") + "] aggregate count(*)"
	}
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parsing %q: %v", src, err)
	}
	if !edges {
		return s.(*CreateAggView).Grouping.Predicates
	}
	var out []Expr
	for _, v := range s.(*CreateCollection).Views {
		out = append(out, v.Pred)
	}
	return out
}

func randBits(r *rand.Rand, n int) *graph.Bitset {
	b := graph.NewBitset(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			b.Set(i)
		}
	}
	return b
}

// checkSet compiles exprs with the set compiler and the reference: both
// must fail with the same message, or both succeed and agree on every row of
// [lo, hi), with the keep and drop masks applied and the rows outside the
// range untouched.
func checkSet(t *testing.T, r *rand.Rand, g *graph.Graph, edges bool, exprs []Expr, lo, hi int) {
	t.Helper()
	n, p, compileRef := g.NumNodes, NewNodeSet(g), refCompileNode
	if edges {
		n, p, compileRef = g.NumEdges(), NewEdgeSet(g), refCompileEdge
	}
	refs := make([]func(int) bool, len(exprs))
	for i, e := range exprs {
		var rerr error
		refs[i], rerr = compileRef(g, e)
		perr := p.Add(e)
		if fmt.Sprint(perr) != fmt.Sprint(rerr) {
			t.Fatalf("predicate %q: set compiler error %v, reference error %v", e, perr, rerr)
		}
		if perr != nil {
			return
		}
	}
	var keep *graph.Bitset
	if r.Intn(2) == 0 {
		keep = randBits(r, n)
	}
	// Edge programs drop the tombstones, sometimes from a bitmap cut short.
	var drop []uint64
	if edges {
		drop = g.DeadWords[:len(g.DeadWords)-r.Intn(2)*r.Intn(len(g.DeadWords)+1)]
	}
	dropped := func(i int) bool { return i>>6 < len(drop) && drop[i>>6]&(1<<(uint(i)&63)) != 0 }
	// Random bits outside the range, which must survive; zeros inside it.
	before := make([]*graph.Bitset, len(exprs))
	out := make([]*graph.Bitset, len(exprs))
	for j := range out {
		before[j], out[j] = randBits(r, n), graph.NewBitset(n)
		for i := 0; i < n; i++ {
			if before[j].Get(i) && (i < lo || i >= hi) {
				out[j].Set(i)
			}
		}
	}
	p.Eval(lo, hi, keep, drop, out)
	for j, e := range exprs {
		for i := 0; i < n; i++ {
			want := before[j].Get(i)
			if i >= lo && i < hi {
				want = (keep == nil || keep.Get(i)) && !dropped(i) && refs[j](i)
			}
			if out[j].Get(i) != want {
				t.Fatalf("predicate %q over [%d, %d) of %d rows: row %d is %v, want %v", e, lo, hi, n, i, !want, want)
			}
		}
	}
}

func randRange(r *rand.Rand, n int) (int, int) {
	lo := r.Intn(n + 1)
	return lo, lo + r.Intn(n-lo+1)
}

func TestSetCompilerMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r)
		exprs := reparse(t, randPreds(r, true), true)
		// Programmatic predicates ride along as opaque atoms.
		if r.Intn(3) == 0 {
			exprs = append(exprs, &BinaryExpr{Op: OpOr, L: Func(func(i int) bool { return i%3 == 0 }), R: exprs[0]})
		}
		for range 3 {
			lo, hi := randRange(r, g.NumEdges())
			checkSet(t, r, g, true, exprs, lo, hi)
		}
		checkSet(t, r, g, true, exprs, 0, g.NumEdges())
		nodeExprs := reparse(t, randPreds(r, false), false)
		lo, hi := randRange(r, g.NumNodes)
		checkSet(t, r, g, false, nodeExprs, lo, hi)
	}
}

// FuzzCompileEdgeSet holds the set compiler to the reference on arbitrary
// GVDL over a random graph: the same compile errors, and the same bits over
// any row range.
//
//	go test -run '^$' -fuzz FuzzCompileEdgeSet ./internal/gvdl
func FuzzCompileEdgeSet(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r)
		lo, hi := randRange(r, g.NumEdges())
		f.Add(seed, collectionSrc(randPreds(r, true)), uint16(lo), uint16(hi))
	}
	f.Fuzz(func(t *testing.T, seed int64, src string, lo, hi uint16) {
		r := rand.New(rand.NewSource(seed))
		g := randGraph(r)
		stmts, err := ParseAll(src)
		if err != nil {
			return
		}
		var exprs []Expr
		for _, s := range stmts {
			switch s := s.(type) {
			case *CreateView:
				exprs = append(exprs, s.Where)
			case *CreateCollection:
				for _, v := range s.Views {
					exprs = append(exprs, v.Pred)
				}
			}
		}
		n := g.NumEdges()
		l, h := int(lo)%(n+1), int(hi)%(n+1)
		checkSet(t, r, g, true, exprs, min(l, h), max(l, h))
	})
}
