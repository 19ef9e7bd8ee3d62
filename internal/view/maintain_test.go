package view

import (
	"reflect"
	"testing"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
)

// TestOptimizeOrderDegenerate pins the optimizer's fast paths: zero or one
// view and all-empty views skip the Hamming matrix and the solver, returning
// the written order.
func TestOptimizeOrderDegenerate(t *testing.T) {
	if got := OptimizeOrder(&EBM{}); len(got) != 0 {
		t.Fatalf("empty EBM order = %v", got)
	}
	one := &EBM{NumEdges: 10, Names: []string{"a"}, Cols: []*graph.Bitset{graph.NewBitset(10)}}
	one.Cols[0].Set(3)
	if got := OptimizeOrder(one); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("single-view order = %v", got)
	}
	empty := &EBM{NumEdges: 10, Names: []string{"a", "b", "c"},
		Cols: []*graph.Bitset{graph.NewBitset(10), graph.NewBitset(10), graph.NewBitset(10)}}
	if got := OptimizeOrder(empty); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("all-empty order = %v", got)
	}
}

// TestMaterializeDiffsDegenerate pins the diff materializer's edge cases: a
// single-view collection's stream is the view's members as one add set, and
// all-empty views produce an all-empty stream.
func TestMaterializeDiffsDegenerate(t *testing.T) {
	d := MaterializeDiffs(&EBM{}, nil)
	if d.NumViews() != 0 {
		t.Fatalf("empty stream has %d views", d.NumViews())
	}

	one := &EBM{NumEdges: 8, Names: []string{"a"}, Cols: []*graph.Bitset{graph.NewBitset(8)}}
	one.Cols[0].Set(1)
	one.Cols[0].Set(5)
	d = MaterializeDiffs(one, []int{0})
	if !reflect.DeepEqual(d.Adds[0], []uint32{1, 5}) || len(d.Dels[0]) != 0 {
		t.Fatalf("single-view stream: adds %v, dels %v", d.Adds[0], d.Dels[0])
	}
	if d.Names[0] != "a" || d.ViewSizes()[0] != 2 {
		t.Fatalf("single-view stream: names %v, sizes %v", d.Names, d.ViewSizes())
	}

	empty := &EBM{NumEdges: 8, Names: []string{"a", "b"}, Cols: []*graph.Bitset{graph.NewBitset(8), graph.NewBitset(8)}}
	d = MaterializeDiffs(empty, []int{1, 0})
	if d.NumViews() != 2 || d.TotalDiffs() != 0 {
		t.Fatalf("all-empty stream: %d views, %d diffs", d.NumViews(), d.TotalDiffs())
	}
	if d.Names[0] != "b" || d.Names[1] != "a" {
		t.Fatalf("all-empty stream names %v", d.Names)
	}
}

// mutateChain applies one batch to a chain graph: inserts with the given w
// values (endpoints 0->1) and deletions of the given edge indices.
func mutateChain(t *testing.T, g *graph.Graph, insW []int64, delIdx []int) graph.Applied {
	t.Helper()
	var ins []graph.EdgeInsert
	for _, w := range insW {
		ins = append(ins, graph.EdgeInsert{Src: 0, Dst: 1, Props: map[string]graph.Value{"w": graph.IntValue(w)}})
	}
	var dels []graph.EdgePair
	for _, i := range delIdx {
		dels = append(dels, graph.EdgePair{Src: g.Srcs[i], Dst: g.Dsts[i]})
	}
	mb, err := graph.NewMutationBatch(g, ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.ApplyMutation(mb)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// wPred returns a predicate on the chain graph's "w" property that reads the
// column at call time, so it stays valid across appends.
func wPred(g *graph.Graph, bound int64) gvdl.Expr {
	return gvdl.Func(func(i int) bool { return g.EdgeProps.Cols[0].Ints[i] < bound })
}

// TestMaintainView is delete-then-insert maintenance of a filtered view — a
// one-view collection — as created and, as after a restart, reloaded.
func TestMaintainView(t *testing.T) {
	for _, reloaded := range []bool{false, true} {
		g := chainGraph(10) // w = edge index
		f, err := materializeStmt(g, "create view small on chain edges where w < 5", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reloaded {
			f = reload(t, f)
		}

		// Insert one member (w=3) and one non-member (w=9); delete one member
		// (edge 2) and one non-member (edge 7).
		a := mutateChain(t, g, []int64{3, 9}, []int{2, 7})
		preds := []gvdl.Expr{wPred(g, 5)}
		deltas, err := MaintainCollection(f, preds, nil, a)
		if err != nil {
			t.Fatal(err)
		}
		delta := deltas[0]

		if f.Version != a.Version {
			t.Fatalf("view version %d, want %d", f.Version, a.Version)
		}
		for i := 0; i < g.NumEdges(); i++ {
			want := g.EdgeAlive(i) && g.EdgeProps.Cols[0].Ints[i] < 5
			if f.Members().Get(i) != want {
				t.Fatalf("reloaded %v: edge %d membership %v, want %v", reloaded, i, !want, want)
			}
		}
		if !reflect.DeepEqual(delta.Adds, []uint32{uint32(a.PrevEdges)}) {
			t.Fatalf("delta adds %v", delta.Adds)
		}
		if !reflect.DeepEqual(delta.Dels, []uint32{2}) {
			t.Fatalf("delta dels %v", delta.Dels)
		}
		if delta.Name != "small" || delta.Empty() {
			t.Fatalf("delta %+v", delta)
		}
		maintainedEqualsFresh(t, g, f, preds, []string{"small"})
	}
}

// maintainedEqualsFresh checks a maintained collection's stream and EBM
// against a from-scratch materialization of the same predicates over the
// mutated graph, in the maintained collection's order.
func maintainedEqualsFresh(t *testing.T, g *graph.Graph, c *Collection, preds []gvdl.Expr, names []string) {
	t.Helper()
	fresh, err := MaterializeFromPredicates("fresh", g, names, preds, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := MaterializeDiffs(fresh.EBM, c.Order)
	for v := 0; v < c.Stream.NumViews(); v++ {
		if !reflect.DeepEqual(c.Stream.Adds[v], want.Adds[v]) && !(len(c.Stream.Adds[v]) == 0 && len(want.Adds[v]) == 0) {
			t.Fatalf("view %d adds: maintained %v, fresh %v", v, c.Stream.Adds[v], want.Adds[v])
		}
		if !reflect.DeepEqual(c.Stream.Dels[v], want.Dels[v]) && !(len(c.Stream.Dels[v]) == 0 && len(want.Dels[v]) == 0) {
			t.Fatalf("view %d dels: maintained %v, fresh %v", v, c.Stream.Dels[v], want.Dels[v])
		}
	}
	if c.EBM.NumEdges != g.NumEdges() {
		t.Fatalf("EBM covers %d edges, graph has %d", c.EBM.NumEdges, g.NumEdges())
	}
	for ci := range c.EBM.Cols {
		for i := 0; i < g.NumEdges(); i++ {
			if c.EBM.Cols[ci].Get(i) != fresh.EBM.Cols[ci].Get(i) {
				t.Fatalf("EBM col %d edge %d differs from fresh", ci, i)
			}
		}
	}
}

func TestMaintainCollectionWithEBM(t *testing.T) {
	g := chainGraph(12)
	names := []string{"a", "b", "c"}
	preds := []gvdl.Expr{wPred(g, 3), wPred(g, 6), wPred(g, 9)}
	c, err := MaterializeFromPredicates("roll", g, names, preds, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	a := mutateChain(t, g, []int64{1, 7, 40}, []int{0, 5, 10})
	deltas, err := MaintainCollection(c, preds, nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != a.Version {
		t.Fatalf("collection version %d, want %d", c.Version, a.Version)
	}
	if len(deltas) != 3 {
		t.Fatalf("%d deltas", len(deltas))
	}
	// View "a" (w < 3): gains the w=1 insert, loses deleted edge 0.
	if !reflect.DeepEqual(deltas[0].Adds, []uint32{uint32(a.PrevEdges)}) || !reflect.DeepEqual(deltas[0].Dels, []uint32{0}) {
		t.Fatalf("view a delta %+v", deltas[0])
	}
	maintainedEqualsFresh(t, g, c, preds, names)
}

// TestMaintainReloadedCollection: a collection loaded from disk maintains
// from the EBM its load rebuilt, through consecutive batches.
func TestMaintainReloadedCollection(t *testing.T) {
	g := chainGraph(12)
	names := []string{"a", "b", "c"}
	preds := []gvdl.Expr{wPred(g, 3), wPred(g, 6), wPred(g, 9)}
	c, err := MaterializeFromPredicates("roll", g, names, preds, nil, Options{Workers: 1, Mode: OrderRandom, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c = reload(t, c)

	a := mutateChain(t, g, []int64{2, 8}, []int{1, 4, 7})
	if _, err := MaintainCollection(c, preds, nil, a); err != nil {
		t.Fatal(err)
	}
	maintainedEqualsFresh(t, g, c, preds, names)

	// A second batch over the already-maintained stream still converges.
	a = mutateChain(t, g, []int64{5}, []int{int(a.PrevEdges)})
	if _, err := MaintainCollection(c, preds, nil, a); err != nil {
		t.Fatal(err)
	}
	maintainedEqualsFresh(t, g, c, preds, names)
}

func TestMaintainCollectionErrors(t *testing.T) {
	g := chainGraph(5)
	preds := []gvdl.Expr{wPred(g, 3)}
	c, err := MaterializeFromPredicates("one", g, []string{"a"}, preds, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := mutateChain(t, g, []int64{1}, nil)
	if _, err := MaintainCollection(c, nil, nil, a); err == nil {
		t.Fatal("predicate count mismatch accepted")
	}
	c.Stream = nil
	if _, err := MaintainCollection(c, preds, nil, a); err == nil {
		t.Fatal("nil stream accepted")
	}
}
