package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/ordering"
)

// chainGraph builds a graph with n edges and an integer edge property "w"
// equal to the edge index.
func chainGraph(n int) *graph.Graph {
	ep := graph.NewPropTable([]graph.PropDef{{Name: "w", Type: graph.TypeInt}})
	g := &graph.Graph{Name: "chain", NumNodes: n + 1, EdgeProps: ep}
	for i := 0; i < n; i++ {
		g.Srcs = append(g.Srcs, uint64(i))
		g.Dsts = append(g.Dsts, uint64(i+1))
		ep.Cols[0].Ints = append(ep.Cols[0].Ints, int64(i))
	}
	return g
}

// materializeStmt materializes a GVDL create statement the way the engine
// does: compile each predicate, run the one materializer, retain the
// sources. `create view` yields a collection of one view named after it.
func materializeStmt(g *graph.Graph, src string, opts Options) (*Collection, error) {
	stmt, err := gvdl.Parse(src)
	if err != nil {
		return nil, err
	}
	var name string
	var names []string
	var exprs []gvdl.Expr
	switch s := stmt.(type) {
	case *gvdl.CreateView:
		name, names, exprs = s.Name, []string{s.Name}, []gvdl.Expr{s.Where}
	case *gvdl.CreateCollection:
		name = s.Name
		for _, v := range s.Views {
			names, exprs = append(names, v.Name), append(exprs, v.Pred)
		}
	}
	srcs := make([]string, len(exprs))
	for i, x := range exprs {
		srcs[i] = x.String()
	}
	c, err := MaterializeFromPredicates(name, g, names, exprs, nil, opts)
	if err != nil {
		return nil, err
	}
	c.PredSrcs = srcs
	return c, nil
}

// funcEBM builds the EBM of programmatic predicates over g.
func funcEBM(g *graph.Graph, names []string, preds []gvdl.Expr, workers int) *EBM {
	prog := gvdl.NewEdgeSet(g)
	for _, p := range preds {
		if err := prog.Add(p); err != nil {
			panic(err)
		}
	}
	return buildEBM(g, names, prog, nil, workers)
}

// TestMaterializeView: a filtered view is a collection of one view whose
// first difference set is its ascending edge list, with membership answered
// by its EBM column, as created and as rebuilt on load.
func TestMaterializeView(t *testing.T) {
	g := chainGraph(10)
	f, err := materializeStmt(g, "create view small on chain edges where w < 3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Stream.NumViews() != 1 || f.Stream.Names[0] != "small" || len(f.Stream.Dels[0]) != 0 {
		t.Fatalf("view stream: names %v, dels %v", f.Stream.Names, f.Stream.Dels)
	}
	if !reflect.DeepEqual(f.Stream.Adds[0], []uint32{0, 1, 2}) {
		t.Fatalf("edges %v", f.Stream.Adds[0])
	}
	for _, reloaded := range []bool{false, true} {
		if reloaded {
			f = reload(t, f)
		}
		for i := 0; i < g.NumEdges(); i++ {
			if f.Members().Get(i) != (i < 3) {
				t.Fatalf("reloaded %v: edge %d membership %v", reloaded, i, i >= 3)
			}
		}
	}
	if (*Collection)(nil).Members() != nil {
		t.Fatal("a nil collection has members")
	}
}

// reload round-trips a collection through the view store, as a restart
// does: the loaded collection's EBM is rebuilt from its stream.
func reload(t *testing.T, c *Collection) *Collection {
	t.Helper()
	dir := t.TempDir()
	if err := SaveCollection(dir, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCollection(dir, c.Name, func(string) (*graph.Graph, error) { return c.Graph, nil })
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestBuildEBMParallelMatchesSerial(t *testing.T) {
	g := chainGraph(1000)
	var names []string
	var preds []gvdl.Expr
	for j := 0; j < 7; j++ {
		names = append(names, fmt.Sprintf("v%d", j))
		preds = append(preds, gvdl.Func(func(i int) bool { return i%(j+2) == 0 }))
	}
	serial := funcEBM(g, names, preds, 1)
	parallel := funcEBM(g, names, preds, 4)
	for j := range preds {
		if serial.Cols[j].Count() != parallel.Cols[j].Count() {
			t.Fatalf("column %d differs: %d vs %d", j, serial.Cols[j].Count(), parallel.Cols[j].Count())
		}
		for i := 0; i < g.NumEdges(); i++ {
			if serial.Cols[j].Get(i) != parallel.Cols[j].Get(i) {
				t.Fatalf("column %d bit %d differs", j, i)
			}
		}
	}
}

// diffsOracle recomputes a view's edge set from the diff stream prefix.
func diffsOracle(d *DiffStream, t int) map[uint32]bool {
	cur := make(map[uint32]bool)
	for s := 0; s <= t; s++ {
		for _, e := range d.Adds[s] {
			if cur[e] {
				panic("double add")
			}
			cur[e] = true
		}
		for _, e := range d.Dels[s] {
			if !cur[e] {
				panic("delete of absent edge")
			}
			delete(cur, e)
		}
	}
	return cur
}

func TestMaterializeDiffsRoundTrip(t *testing.T) {
	// Property: accumulating the diff stream through view t reproduces
	// exactly the EBM column of the view at position t, for random EBMs and
	// random orders.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nEdges := 1 + r.Intn(200)
		k := 1 + r.Intn(8)
		m := &EBM{NumEdges: nEdges}
		for j := 0; j < k; j++ {
			m.Names = append(m.Names, fmt.Sprintf("v%d", j))
			col := graph.NewBitset(nEdges)
			for i := 0; i < nEdges; i++ {
				if r.Intn(2) == 1 {
					col.Set(i)
				}
			}
			m.Cols = append(m.Cols, col)
		}
		order := r.Perm(k)
		d := MaterializeDiffs(m, order)
		for pos, c := range order {
			got := diffsOracle(d, pos)
			for i := 0; i < nEdges; i++ {
				if got[uint32(i)] != m.Cols[c].Get(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildEBMRoundTrip: rebuilding an EBM from the stream MaterializeDiffs
// derives returns the same columns and names, for random columns in random
// orders over an edge count that is not a multiple of 64, with tombstoned
// edges that no column holds.
func TestRebuildEBMRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := chainGraph(64*r.Intn(3) + 1 + r.Intn(63))
		dead := []int{0}
		for i := 1; i < g.NumEdges(); i++ {
			if r.Intn(8) == 0 {
				dead = append(dead, i)
			}
		}
		mutateChain(t, g, nil, dead)
		k := 1 + r.Intn(8)
		names := make([]string, k)
		preds := make([]gvdl.Expr, k)
		for j := range preds {
			names[j] = fmt.Sprintf("v%d", j)
			in := make([]bool, g.NumEdges())
			for i := range in {
				in[i] = r.Intn(2) == 0
			}
			preds[j] = gvdl.Func(func(i int) bool { return in[i] })
		}
		c, err := MaterializeFromPredicates("rnd", g, names, preds, nil, Options{Mode: OrderRandom, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rebuildEBM(g.NumEdges(), c.Order, c.Stream)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Names, c.EBM.Names) || got.NumEdges != c.EBM.NumEdges {
			return false
		}
		for j, col := range got.Cols {
			if !reflect.DeepEqual(col.Words(), c.EBM.Cols[j].Words()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// cbCount counts consecutive blocks of a boolean row.
func cbCount(row []bool) int {
	cb := 0
	prev := false
	for _, b := range row {
		if b && !prev {
			cb++
		}
		prev = b
	}
	return cb
}

// dsCount counts the diffs a row contributes (transitions in the 0-padded
// row).
func dsCount(row []bool) int {
	ds := 0
	prev := false
	for _, b := range row {
		if b != prev {
			ds++
		}
		prev = b
	}
	return ds
}

// TestTheorem41Identity verifies the exact accounting identity behind the
// paper's NP-hardness reduction (Theorem 4.1): stacking B on its complement
// Bᶜ ties the difference-set objective to consecutive blocks exactly:
//
//	ds(B∘Bᶜ, σ) = 2·cb(B∘Bᶜ, σ) − rows(B)
//
// because for any row r, ds(r) + ds(rᶜ) = 1 + 2T and cb(r) + cb(rᶜ) = 1 + T,
// where T is the number of internal transitions of r under σ. (The paper's
// in-proof per-row count of 4·cb(r)−1 overstates rows like (1 0 0 1); the
// identity above is the exact form, and the order that minimizes one side
// minimizes the other, which is all the reduction needs.)
func TestTheorem41Identity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(20)
		k := 1 + r.Intn(7)
		var ds, cbStacked int
		for i := 0; i < rows; i++ {
			row := make([]bool, k)
			comp := make([]bool, k)
			transitions := 0
			for j := range row {
				row[j] = r.Intn(2) == 1
				comp[j] = !row[j]
				if j > 0 && row[j] != row[j-1] {
					transitions++
				}
			}
			rowDS := dsCount(row) + dsCount(comp)
			rowCB := cbCount(row) + cbCount(comp)
			if rowDS != 1+2*transitions || rowCB != 1+transitions {
				return false
			}
			ds += rowDS
			cbStacked += rowCB
		}
		return ds == 2*cbStacked-rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeOrderBeatsRandomOnStructuredCollections(t *testing.T) {
	// Nested-window views shuffled out of order: the optimizer should
	// recover (close to) the nested order and produce far fewer diffs than
	// the shuffled order.
	g := chainGraph(280)
	k := 7
	names := make([]string, k)
	preds := make([]gvdl.Expr, k)
	perm := rand.New(rand.NewSource(5)).Perm(k)
	for pos, width := range perm {
		limit := (width + 1) * 40
		names[pos] = fmt.Sprintf("w%d", limit)
		preds[pos] = gvdl.Func(func(i int) bool { return i < limit })
	}
	m := funcEBM(g, names, preds, 1)

	asWritten := make([]int, k)
	for i := range asWritten {
		asWritten[i] = i
	}
	shuffledDiffs := MaterializeDiffs(m, asWritten).TotalDiffs()
	opt := OptimizeOrder(m)
	optDiffs := MaterializeDiffs(m, opt).TotalDiffs()
	if optDiffs >= shuffledDiffs {
		t.Fatalf("optimizer did not help: %d vs %d", optDiffs, shuffledDiffs)
	}
	// The optimal order of nested windows yields exactly max-window + k-1
	// diff entries... compute the true optimum by brute force for certainty.
	best := ordering.BruteForce(k, func(o []int) int64 { return MaterializeDiffs(m, o).TotalDiffs() })
	bestDiffs := MaterializeDiffs(m, best).TotalDiffs()
	if float64(optDiffs) > 1.6*float64(bestDiffs) {
		t.Fatalf("optimizer %d diffs, optimal %d", optDiffs, bestDiffs)
	}
}

func TestMaterializeEndToEnd(t *testing.T) {
	g := chainGraph(100)
	src := `create view collection c on chain
[a: w < 30],
[b: w < 60],
[c: w < 90]`
	col, err := materializeStmt(g, src, Options{Workers: 2, Mode: OrderAsWritten})
	if err != nil {
		t.Fatal(err)
	}
	if col.Stream.NumViews() != 3 {
		t.Fatal("views")
	}
	sizes := col.Stream.ViewSizes()
	if sizes[0] != 30 || sizes[1] != 60 || sizes[2] != 90 {
		t.Fatalf("sizes = %v", sizes)
	}
	if col.Stream.TotalDiffs() != 90 {
		t.Fatalf("total diffs = %d", col.Stream.TotalDiffs())
	}
	if col.Timings.Total() <= 0 {
		t.Fatal("timings not recorded")
	}

	// Optimized and random orders keep per-view contents identical.
	for _, mode := range []OrderingMode{OrderOptimized, OrderRandom} {
		c2, err := materializeStmt(g, src, Options{Mode: mode, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for pos, c := range c2.Order {
			acc := diffsOracle(c2.Stream, pos)
			want := c2.EBM.Cols[c]
			for i := 0; i < g.NumEdges(); i++ {
				if acc[uint32(i)] != want.Get(i) {
					t.Fatalf("mode %d: view %d content mismatch", mode, pos)
				}
			}
		}
	}
}

func TestMaterializeErrors(t *testing.T) {
	g := chainGraph(5)
	if _, err := materializeStmt(g, "create view collection c on chain [a: nope = 1]", Options{}); err == nil {
		t.Fatal("expected error for unknown property")
	}
	if _, err := MaterializeFromPredicates("c", g, []string{"a"}, nil, nil, Options{}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, err := MaterializeFromPredicates("c", g, nil, nil, nil, Options{}); err == nil {
		t.Fatal("expected error for empty collection")
	}
}
