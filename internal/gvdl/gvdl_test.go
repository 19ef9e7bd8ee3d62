package gvdl

import (
	"strings"
	"testing"

	"graphsurge/internal/graph"
)

func TestParseFilteredView(t *testing.T) {
	// Listing 1 from the paper.
	src := `create view CA-Long-Calls on Calls
edges where src.state = 'CA' and dst.state = 'CA'
and duration > 10 and year = 2019`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s.(*CreateView)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if v.Name != "CA-Long-Calls" || v.On != "Calls" {
		t.Fatalf("name=%q on=%q", v.Name, v.On)
	}
	// and is left-associative: ((a and b) and c) and d
	str := v.String()
	for _, frag := range []string{"src.state = 'CA'", "duration > 10", "year = 2019"} {
		if !strings.Contains(str, frag) {
			t.Fatalf("String() = %q missing %q", str, frag)
		}
	}
}

func TestParseCollection(t *testing.T) {
	// Listing 3 from the paper (truncated).
	src := `create view collection call-analysis on Calls
[D1-Y2010: duration<=1 and year<=2010],
[D2-Y2010: duration<=2 and year<=2010],
[D34-Y2010: duration<=34 and year<=2010]`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := s.(*CreateCollection)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if c.Name != "call-analysis" || c.On != "Calls" || len(c.Views) != 3 {
		t.Fatalf("parsed %+v", c)
	}
	if c.Views[2].Name != "D34-Y2010" {
		t.Fatalf("view name %q", c.Views[2].Name)
	}
}

func TestParseAggregateViews(t *testing.T) {
	// Listing 4 from the paper.
	src := `create view NY-Dr-CA-Lawyer on Calls
nodes group by [
(profession='Doctor' and city='NY'),
(profession='Lawyer' and city='LA'),
(profession='Teacher' and city='DC')]
aggregate count(*)`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := s.(*CreateAggView)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if len(a.Grouping.Predicates) != 3 || len(a.NodeAggs) != 1 || a.NodeAggs[0].Func != AggCount {
		t.Fatalf("parsed %+v", a)
	}

	src2 := `create view City-Calls-City on Calls
nodes group by city aggregate num-phones: count(*)
edges aggregate total-duration: sum(duration)`
	s2, err := Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	a2 := s2.(*CreateAggView)
	if len(a2.Grouping.Props) != 1 || a2.Grouping.Props[0] != "city" {
		t.Fatalf("grouping %+v", a2.Grouping)
	}
	if a2.NodeAggs[0].OutName != "num-phones" || a2.EdgeAggs[0].OutName != "total-duration" ||
		a2.EdgeAggs[0].Func != AggSum || a2.EdgeAggs[0].Prop != "duration" {
		t.Fatalf("aggs %+v %+v", a2.NodeAggs, a2.EdgeAggs)
	}
	if a2.On != "Calls" {
		t.Fatal("On")
	}
}

func TestParseMultipleStatements(t *testing.T) {
	src := `create view a on g edges where x = 1
create view b on g edges where x = 2`
	stmts, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParsePrecedenceAndNot(t *testing.T) {
	src := `create view v on g edges where a = 1 or b = 2 and not (c = 3)`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e := s.(*CreateView).Where.(*BinaryExpr)
	if e.Op != OpOr {
		t.Fatalf("top op = %v, want or", e.Op)
	}
	r := e.R.(*BinaryExpr)
	if r.Op != OpAnd {
		t.Fatalf("right op = %v, want and", r.Op)
	}
	if _, ok := r.R.(*NotExpr); !ok {
		t.Fatalf("expected not, got %T", r.R)
	}
}

func TestParseComments(t *testing.T) {
	src := "create view v on g -- a comment\nedges where x = -5"
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cmp := s.(*CreateView).Where.(*Compare)
	if cmp.R.Lit.I != -5 {
		t.Fatalf("literal = %v", cmp.R.Lit)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"make view v on g edges where x = 1",
		"create table v on g",
		"create view v on g edges x = 1",
		"create view v on g edges where x ==",
		"create view v on g edges where x",
		"create view v on g edges where 'unterminated",
		"create view v on g nodes group by",
		"create view v on g nodes group by city aggregate frobnicate(x)",
		"create view v on g nodes group by city aggregate sum(*)",
		"create view collection c on g",
		"create view collection c on g [v1 x = 1]",
		"create view v on g edges where x @ 1",
	}
	for _, src := range cases {
		if _, err := ParseAll(src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}

// testGraph builds a small graph for predicate compilation tests.
func testGraph() *graph.Graph {
	np := graph.NewPropTable([]graph.PropDef{
		{Name: "city", Type: graph.TypeString},
		{Name: "vip", Type: graph.TypeBool},
	})
	for _, row := range [][]graph.Value{
		{graph.StringValue("LA"), graph.BoolValue(true)},
		{graph.StringValue("NY"), graph.BoolValue(false)},
		{graph.StringValue("LA"), graph.BoolValue(false)},
	} {
		if err := np.AppendRow(row); err != nil {
			panic(err)
		}
	}
	ep := graph.NewPropTable([]graph.PropDef{
		{Name: "duration", Type: graph.TypeInt},
		{Name: "year", Type: graph.TypeInt},
	})
	edges := []struct {
		s, d uint64
		dur  int64
		year int64
	}{
		{0, 1, 5, 2019},
		{1, 2, 15, 2019},
		{2, 0, 20, 2010},
	}
	g := &graph.Graph{Name: "g", NumNodes: 3, NodeProps: np, EdgeProps: ep}
	for _, e := range edges {
		g.Srcs = append(g.Srcs, e.s)
		g.Dsts = append(g.Dsts, e.d)
		if err := ep.AppendRow([]graph.Value{graph.IntValue(e.dur), graph.IntValue(e.year)}); err != nil {
			panic(err)
		}
	}
	return g
}

// evalEdgeSet compiles the predicates into one edge program and returns
// each one's bitset over all of g's edges.
func evalEdgeSet(t *testing.T, g *graph.Graph, preds ...string) []*graph.Bitset {
	t.Helper()
	p := NewEdgeSet(g)
	out := make([]*graph.Bitset, len(preds))
	for i, pred := range preds {
		e, err := ParsePredicate(pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Add(e); err != nil {
			t.Fatalf("%q: %v", pred, err)
		}
		out[i] = graph.NewBitset(g.NumEdges())
	}
	p.Eval(0, g.NumEdges(), nil, nil, out)
	return out
}

func TestCompileEdgePredicate(t *testing.T) {
	g := testGraph()
	cases := []struct {
		pred string
		want []bool // per edge
	}{
		{"duration > 10", []bool{false, true, true}},
		{"duration > 10 and year = 2019", []bool{false, true, false}},
		{"duration <= 5 or year < 2015", []bool{true, false, true}},
		{"src.city = 'LA'", []bool{true, false, true}},
		{"dst.city = 'LA'", []bool{false, true, true}},
		{"src.city = dst.city", []bool{false, false, true}},
		{"not (duration > 10)", []bool{true, false, false}},
		{"src.vip = true", []bool{true, false, false}},
		{"src.vip != dst.vip", []bool{true, false, true}},
		{"duration != 15", []bool{true, false, true}},
		{"year >= 2019", []bool{true, true, false}},
		{"src.city < dst.city", []bool{true, false, false}},
		{"2015 > year", []bool{false, false, true}},
	}
	preds := make([]string, len(cases))
	for i, c := range cases {
		preds[i] = c.pred
	}
	// One program over every case: the repeated comparisons share atoms.
	got := evalEdgeSet(t, g, preds...)
	for ci, c := range cases {
		for i, want := range c.want {
			if got[ci].Get(i) != want {
				t.Errorf("%q edge %d: got %v want %v", c.pred, i, !want, want)
			}
		}
	}
}

func TestCompileNodePredicate(t *testing.T) {
	g := testGraph()
	s, err := Parse("create view v on g nodes group by [(city = 'LA'), (city = 'NY')] aggregate count(*)")
	if err != nil {
		t.Fatal(err)
	}
	a := s.(*CreateAggView)
	p := NewNodeSet(g)
	out := make([]*graph.Bitset, len(a.Grouping.Predicates))
	for i, e := range a.Grouping.Predicates {
		if err := p.Add(e); err != nil {
			t.Fatal(err)
		}
		out[i] = graph.NewBitset(g.NumNodes)
	}
	p.Eval(0, g.NumNodes, nil, nil, out)
	for gi, want := range [][]bool{{true, false, true}, {false, true, false}} {
		for i, w := range want {
			if out[gi].Get(i) != w {
				t.Errorf("group %d node %d: got %v want %v", gi, i, !w, w)
			}
		}
	}
	// src./dst. illegal in node context.
	s2, _ := Parse("create view v on g edges where src.city = 'LA'")
	if err := NewNodeSet(g).Add(s2.(*CreateView).Where); err == nil {
		t.Fatal("expected error for src. in node predicate")
	}
}

func TestCompileErrors(t *testing.T) {
	g := testGraph()
	bad := []string{
		"nope = 1",
		"src.nope = 1",
		"duration = 'x'",
		"src.vip > true",
		"src.city = 1",
	}
	for _, pred := range bad {
		s, err := Parse("create view v on g edges where " + pred)
		if err != nil {
			t.Fatalf("parse %q: %v", pred, err)
		}
		if err := NewEdgeSet(g).Add(s.(*CreateView).Where); err == nil {
			t.Fatalf("expected compile error for %q", pred)
		}
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := ParseAll("create view v on g\nedges wharr x = 1")
	if err == nil {
		t.Fatal("expected error")
	}
	ge, ok := err.(*Error)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if ge.Line != 2 {
		t.Fatalf("line = %d, want 2", ge.Line)
	}
}
