package aggregate

import (
	"testing"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
)

// callsGraph builds the paper's Figure 1 phone call graph.
func callsGraph() *graph.Graph {
	np := graph.NewPropTable([]graph.PropDef{
		{Name: "city", Type: graph.TypeString},
		{Name: "profession", Type: graph.TypeString},
	})
	nodes := []struct{ city, prof string }{
		{"LA", "Engineer"}, // 0 (paper node 1)
		{"LA", "Doctor"},   // 1 (paper node 2)
		{"LA", "Engineer"}, // 2 (paper node 3)
		{"NY", "Lawyer"},   // 3 (paper node 4)
		{"NY", "Doctor"},   // 4 (paper node 5)
		{"LA", "Engineer"}, // 5 (paper node 6)
		{"NY", "Lawyer"},   // 6 (paper node 7)
		{"LA", "Lawyer"},   // 7 (paper node 8)
	}
	for _, n := range nodes {
		if err := np.AppendRow([]graph.Value{graph.StringValue(n.city), graph.StringValue(n.prof)}); err != nil {
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
		{0, 1, 7, 2015},
		{0, 2, 12, 2017},
		{1, 4, 19, 2019},
		{2, 5, 7, 2018},
		{3, 6, 4, 2019},
		{4, 3, 13, 2019},
		{5, 0, 1, 2010},
		{6, 7, 34, 2019},
		{7, 4, 18, 2019},
	}
	g := &graph.Graph{Name: "Calls", NumNodes: len(nodes), NodeProps: np, EdgeProps: ep}
	for _, e := range edges {
		g.Srcs = append(g.Srcs, e.s)
		g.Dsts = append(g.Dsts, e.d)
		if err := ep.AppendRow([]graph.Value{graph.IntValue(e.dur), graph.IntValue(e.year)}); err != nil {
			panic(err)
		}
	}
	return g
}

func mustParseAgg(t *testing.T, src string) *gvdl.CreateAggView {
	t.Helper()
	s, err := gvdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*gvdl.CreateAggView)
}

func TestCityCallsCity(t *testing.T) {
	// Listing 4's second view: city super-nodes, call count and total
	// duration on super-edges.
	g := callsGraph()
	stmt := mustParseAgg(t, `create view City-Calls-City on Calls
nodes group by city aggregate num-phones: count(*)
edges aggregate total-duration: sum(duration)`)
	v, err := Evaluate(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.SuperNodes) != 2 {
		t.Fatalf("super nodes: %+v", v.SuperNodes)
	}
	byKey := map[string]SuperNode{}
	for _, sn := range v.SuperNodes {
		byKey[sn.Key] = sn
	}
	if byKey["LA"].Size != 5 || byKey["NY"].Size != 3 {
		t.Fatalf("group sizes: %+v", byKey)
	}
	if byKey["LA"].Aggs[0] != 5 || byKey["NY"].Aggs[0] != 3 {
		t.Fatalf("count aggs: %+v", byKey)
	}
	// Edges between groups: LA->LA {7,12,7,1}=27, LA->NY {19,18}=37,
	// NY->NY {4,13}=17, NY->LA {34}=34.
	la, ny := byKey["LA"].ID, byKey["NY"].ID
	want := map[[2]uint64]struct{ count, dur int64 }{
		{la, la}: {4, 27},
		{la, ny}: {2, 37},
		{ny, ny}: {2, 17},
		{ny, la}: {1, 34},
	}
	if len(v.SuperEdges) != len(want) {
		t.Fatalf("super edges: %+v", v.SuperEdges)
	}
	for _, se := range v.SuperEdges {
		w, ok := want[[2]uint64{se.Src, se.Dst}]
		if !ok || se.Count != w.count || se.Aggs[0] != w.dur {
			t.Fatalf("super edge %+v, want %+v", se, w)
		}
	}
}

func TestPredicateGrouping(t *testing.T) {
	// Listing 4's first view: explicit predicate groups; nodes matching no
	// predicate are dropped, and so are their edges.
	g := callsGraph()
	stmt := mustParseAgg(t, `create view NY-Dr-LA-Lawyer on Calls
nodes group by [
(profession='Doctor' and city='NY'),
(profession='Lawyer' and city='LA'),
(profession='Lawyer' and city='NY')]
aggregate count(*)`)
	v, err := Evaluate(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Groups: 0 = NY doctors {4}, 1 = LA lawyers {7}, 2 = NY lawyers {3,6}.
	if len(v.SuperNodes) != 3 {
		t.Fatalf("super nodes: %+v", v.SuperNodes)
	}
	sizes := map[uint64]int64{}
	for _, sn := range v.SuperNodes {
		sizes[sn.ID] = sn.Size
	}
	if sizes[0] != 1 || sizes[1] != 1 || sizes[2] != 2 {
		t.Fatalf("sizes: %v", sizes)
	}
	// Surviving edges among {3,4,6,7}: 3->6 (g2->g2), 4->3 (g0->g2),
	// 6->7 (g2->g1), 7->4 (g1->g0).
	if len(v.SuperEdges) != 4 {
		t.Fatalf("super edges: %+v", v.SuperEdges)
	}
}

func TestMinMaxAvgAggregates(t *testing.T) {
	g := callsGraph()
	stmt := mustParseAgg(t, `create view stats on Calls
nodes group by city
edges aggregate lo: min(duration), hi: max(duration), mean: avg(duration)`)
	v, err := Evaluate(g, stmt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var laToLA *SuperEdge
	var laID uint64
	for _, sn := range v.SuperNodes {
		if sn.Key == "LA" {
			laID = sn.ID
		}
	}
	for i := range v.SuperEdges {
		if v.SuperEdges[i].Src == laID && v.SuperEdges[i].Dst == laID {
			laToLA = &v.SuperEdges[i]
		}
	}
	if laToLA == nil {
		t.Fatal("no LA->LA super edge")
	}
	// LA->LA durations: {7, 12, 7, 1}.
	if laToLA.Aggs[0] != 1 || laToLA.Aggs[1] != 12 || laToLA.Aggs[2] != 6 {
		t.Fatalf("min/max/avg = %v", laToLA.Aggs)
	}
}

func TestEvaluateErrors(t *testing.T) {
	g := callsGraph()
	bad := []string{
		"create view v on Calls nodes group by nope",
		"create view v on Calls nodes group by city aggregate sum(city)",
		"create view v on Calls nodes group by city aggregate sum(nope)",
		"create view v on Calls nodes group by city edges aggregate sum(nope)",
		"create view v on Calls nodes group by [(src.city = 'LA')] aggregate count(*)",
	}
	for _, src := range bad {
		stmt := mustParseAgg(t, src)
		if _, err := Evaluate(g, stmt, nil); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
}
