package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// liveEdgeWhere returns the first live edge index whose ts satisfies want.
func liveEdgeWhere(t *testing.T, g *graph.Graph, want func(ts int64) bool) int {
	t.Helper()
	tsCol, ok := g.EdgeProps.ColumnIndex("ts")
	if !ok {
		t.Fatal("no ts column")
	}
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAlive(i) && want(g.EdgeProps.Cols[tsCol].Ints[i]) {
			return i
		}
	}
	t.Fatal("no live edge matches")
	return -1
}

// streamMembership reconstructs each ordered view's member set by walking
// the collection's difference stream cumulatively.
func streamMembership(c *view.Collection) []map[uint32]bool {
	k := c.Stream.NumViews()
	out := make([]map[uint32]bool, k)
	cur := map[uint32]bool{}
	for t := 0; t < k; t++ {
		for _, e := range c.Stream.Adds[t] {
			cur[e] = true
		}
		for _, e := range c.Stream.Dels[t] {
			delete(cur, e)
		}
		snap := make(map[uint32]bool, len(cur))
		for e := range cur {
			snap[e] = true
		}
		out[t] = snap
	}
	return out
}

// TestApplyMutationMaintainsViewsAndCollections is the maintenance
// equivalence check: after a GVDL apply statement, every maintained view and
// collection holds exactly the membership a from-scratch rematerialization
// against the mutated graph would produce.
func TestApplyMutationMaintainsViewsAndCollections(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.ExecuteContext(context.Background(), `create view recent on so edges where ts >= 50
create view recent-short on recent edges where duration <= 10
create view collection hist on so [w1: ts < 20], [w2: ts < 40], [w3: ts < 60], [w4: ts < 80], [w5: ts < 100]`); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Graph("so")
	tsCol, _ := g.EdgeProps.ColumnIndex("ts")
	durCol, _ := g.EdgeProps.ColumnIndex("duration")
	ts := func(i int) int64 { return g.EdgeProps.Cols[tsCol].Ints[i] }
	dur := func(i int) int64 { return g.EdgeProps.Cols[durCol].Ints[i] }

	// One deletion inside the recent view, one outside it.
	dIn := liveEdgeWhere(t, g, func(v int64) bool { return v >= 50 })
	dOut := liveEdgeWhere(t, g, func(v int64) bool { return v < 50 })
	prevEdges := g.NumEdges()

	src := fmt.Sprintf(
		"apply insert 1->2 [ts = 75, duration = 3], 4->5 [ts = 10, duration = 50] delete %d->%d, %d->%d to so",
		g.Srcs[dIn], g.Dsts[dIn], g.Srcs[dOut], g.Dsts[dOut])
	out, err := e.ExecuteContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}

	if g.Version != 1 {
		t.Fatalf("graph version = %d", g.Version)
	}
	if g.NumEdges() != prevEdges+2 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), prevEdges+2)
	}
	if g.EdgeAlive(dIn) || g.EdgeAlive(dOut) {
		t.Fatal("deleted edges still alive")
	}
	if !g.EdgeAlive(prevEdges) || !g.EdgeAlive(prevEdges+1) {
		t.Fatal("inserted edges not alive")
	}

	// Views: maintained membership equals brute-force predicate evaluation
	// over the mutated graph's live edges.
	recent, short := mustView(t, e, "recent"), mustView(t, e, "recent-short")
	recentIn, shortIn := recent.Members(), short.Members()
	if recent.Version != 1 || short.Version != 1 {
		t.Fatalf("view versions %d, %d", recent.Version, short.Version)
	}
	for i := 0; i < g.NumEdges(); i++ {
		wantRecent := g.EdgeAlive(i) && ts(i) >= 50
		wantShort := wantRecent && dur(i) <= 10
		if recentIn.Get(i) != wantRecent {
			t.Fatalf("edge %d: recent membership %v, want %v", i, !wantRecent, wantRecent)
		}
		if shortIn.Get(i) != wantShort {
			t.Fatalf("edge %d: recent-short membership %v, want %v", i, !wantShort, wantShort)
		}
	}

	// Collection: the patched stream and EBM agree with per-view predicate
	// evaluation at every ordered position.
	col, _ := e.Collection("hist")
	if col.Version != 1 {
		t.Fatalf("collection version = %d", col.Version)
	}
	members := streamMembership(col)
	for pos, ci := range col.Order {
		bound := int64(20 * (ci + 1))
		for i := 0; i < g.NumEdges(); i++ {
			want := g.EdgeAlive(i) && ts(i) < bound
			if members[pos][uint32(i)] != want {
				t.Fatalf("view %d (ts < %d): edge %d stream membership %v, want %v",
					pos, bound, i, !want, want)
			}
			if col.EBM.Cols[ci].Get(i) != want {
				t.Fatalf("view %d (ts < %d): edge %d EBM bit %v, want %v",
					pos, bound, i, !want, want)
			}
		}
	}
}

// TestMutateRequestMaintainsAggregates drives the typed MutateRequest
// through Session.Do and checks that a retained aggregate-view statement is
// re-evaluated over the mutated graph.
func TestMutateRequestMaintainsAggregates(t *testing.T) {
	e, err := NewEngine(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Social(datagen.SocialConfig{Nodes: 120, Edges: 800, Locations: 8, Seed: 5})
	g.Name = "tw"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), `create view cities on tw
nodes group by city aggregate count(*)
edges aggregate total-w: sum(w)`); err != nil {
		t.Fatal(err)
	}
	superEdgeCount := func() int64 {
		av, err := e.AggView("cities")
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, se := range av.SuperEdges {
			n += se.Count
		}
		return n
	}
	pre := superEdgeCount()

	sess := e.NewSession()
	resp, err := sess.Do(context.Background(), &MutateRequest{
		Graph: "tw",
		Inserts: []EdgeChange{
			{Src: 0, Dst: 1, Props: map[string]any{"w": 7, "affinity": 1}},
			{Src: 2, Dst: 3, Props: map[string]any{"w": float64(9), "affinity": 0}},
		},
		Deletes: []EdgeChange{{Src: g.Srcs[0], Dst: g.Dsts[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ma, ok := resp.(*MutationApplied)
	if !ok {
		t.Fatalf("response type %T", resp)
	}
	if ma.Graph != "tw" || ma.Version != 1 || ma.Inserted != 2 || ma.Deleted < 1 || ma.Maintained != 1 {
		t.Fatalf("applied = %+v", ma)
	}
	// Group-by-property assigns every node, so the super-edge counts sum to
	// the live edge count — re-evaluation must reflect the batch exactly.
	if got, want := superEdgeCount(), pre+2-int64(ma.Deleted); got != want {
		t.Fatalf("aggregated edges = %d, want %d", got, want)
	}
}

// TestMutationPersistenceAndRestart pins the journaled restart path: a
// second engine over the same data directory replays the mutation journal
// and loads the maintained, version-stamped artifacts, and a further
// mutation on the restarted engine — whose collection was loaded without an
// EBM — still maintains correctly via the stream-walk path.
func TestMutationPersistenceAndRestart(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 60, Edges: 400, Days: 10, Seed: 3})
	g.Name = "dyn"
	if err := e1.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ExecuteContext(context.Background(), `create view fresh on dyn edges where ts >= 5
create view collection days on dyn [d3: ts < 3], [d6: ts < 6], [d9: ts < 9]`); err != nil {
		t.Fatal(err)
	}
	del := liveEdgeWhere(t, g, func(int64) bool { return true })
	if _, err := e1.NewSession().Do(context.Background(), &MutateRequest{
		Graph:   "dyn",
		Inserts: []EdgeChange{{Src: 7, Dst: 8, Props: map[string]any{"ts": 6, "duration": 4}}},
		Deletes: []EdgeChange{{Src: g.Srcs[del], Dst: g.Dsts[del]}},
	}); err != nil {
		t.Fatal(err)
	}
	c1, _ := e1.Collection("days")
	wantEdges := append([]uint32(nil), mustView(t, e1, "fresh").Stream.Adds[0]...)
	wantMembers := streamMembership(c1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e2.Graph("dyn")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version != 1 || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("replayed graph: version %d, %d edges", g2.Version, g2.NumEdges())
	}
	v2 := mustView(t, e2, "fresh")
	if v2.Version != 1 || !reflect.DeepEqual(v2.Stream.Adds[0], wantEdges) {
		t.Fatalf("reloaded view: version %d, %d edges, want %d", v2.Version, len(v2.Stream.Adds[0]), len(wantEdges))
	}
	c2, err := e2.LookupCollection("days")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Version != 1 {
		t.Fatalf("reloaded collection version = %d", c2.Version)
	}

	// Mutate again on the restarted engine: the loaded collection has no
	// EBM, so old membership reconstructs from the stream.
	tsCol, _ := g2.EdgeProps.ColumnIndex("ts")
	del2 := liveEdgeWhere(t, g2, func(int64) bool { return true })
	if _, err := e2.NewSession().Do(context.Background(), &MutateRequest{
		Graph:   "dyn",
		Inserts: []EdgeChange{{Src: 1, Dst: 2, Props: map[string]any{"ts": 2, "duration": 9}}},
		Deletes: []EdgeChange{{Src: g2.Srcs[del2], Dst: g2.Dsts[del2]}},
	}); err != nil {
		t.Fatal(err)
	}
	if g2.Version != 2 {
		t.Fatalf("graph version = %d", g2.Version)
	}
	members := streamMembership(c2)
	bounds := []int64{3, 6, 9}
	for pos, ci := range c2.Order {
		for i := 0; i < g2.NumEdges(); i++ {
			want := g2.EdgeAlive(i) && g2.EdgeProps.Cols[tsCol].Ints[i] < bounds[ci]
			if members[pos][uint32(i)] != want {
				t.Fatalf("after restart+mutate: view %d edge %d membership %v, want %v",
					pos, i, !want, want)
			}
		}
	}
	_ = wantMembers
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third engine sees both journal frames replayed.
	e3, err := NewEngine(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := e3.Graph("dyn")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Version != 2 || g3.NumEdges() != g2.NumEdges() {
		t.Fatalf("second replay: version %d, %d edges", g3.Version, g3.NumEdges())
	}
}

// TestMutationNotMaintainableFailsClosed pins the refusal: a programmatic
// collection (no retained predicate sources) over the target graph refuses
// the whole mutation before anything commits.
func TestMutationNotMaintainableFailsClosed(t *testing.T) {
	e := newTestEngine(t)
	g, _ := e.Graph("so")
	col, err := view.MaterializeFromPredicates("prog", g, []string{"a"}, []gvdl.Expr{mustParsePred(t, "ts < 50")}, nil, view.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddCollection(col); err != nil {
		t.Fatal(err)
	}
	prevEdges := g.NumEdges()
	mb, err := graph.NewMutationBatch(g, nil, []graph.EdgePair{{Src: g.Srcs[0], Dst: g.Dsts[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyMutation("so", mb); !errors.Is(err, ErrNotMaintainable) {
		t.Fatalf("err = %v, want ErrNotMaintainable", err)
	}
	if g.Version != 0 || g.NumEdges() != prevEdges || !g.EdgeAlive(0) {
		t.Fatal("refused mutation changed the graph")
	}
}

func mustParsePred(t *testing.T, src string) gvdl.Expr {
	t.Helper()
	expr, err := gvdl.ParsePredicate(src)
	if err != nil {
		t.Fatal(err)
	}
	return expr
}

// TestMutationErrors covers the request- and statement-level refusals.
func TestMutationErrors(t *testing.T) {
	e := newTestEngine(t)
	g, _ := e.Graph("so")
	sess := e.NewSession()
	ctx := context.Background()

	// Apply must target a base graph, not a view.
	if _, err := e.ExecuteContext(context.Background(), "create view v on so edges where ts < 50"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), "apply insert 0->1 [ts = 1, duration = 1] to v"); err == nil {
		t.Fatal("apply to a view succeeded")
	}

	cases := []*MutateRequest{
		{Graph: "nope", Inserts: []EdgeChange{{Src: 0, Dst: 1, Props: map[string]any{"ts": 1, "duration": 1}}}},
		{Graph: "so"}, // empty batch
		{Graph: "so", Inserts: []EdgeChange{{Src: 0, Dst: 1, Props: map[string]any{"ts": 1.5, "duration": 1}}}},
		{Graph: "so", Inserts: []EdgeChange{{Src: 0, Dst: 1, Props: map[string]any{"ts": 1}}}},                                 // missing duration
		{Graph: "so", Inserts: []EdgeChange{{Src: uint64(g.NumNodes), Dst: 1, Props: map[string]any{"ts": 1, "duration": 1}}}}, // out of range
		{Graph: "so", Deletes: []EdgeChange{{Src: 999999, Dst: 999998}}},                                                       // matches no live edge
	}
	for i, req := range cases {
		if _, err := sess.Do(ctx, req); err == nil {
			t.Fatalf("case %d: mutate succeeded", i)
		}
	}
	if g.Version != 0 {
		t.Fatalf("failed mutations bumped version to %d", g.Version)
	}
}

// TestRunViewRacesMutations: a RunViewRequest reads the view's edge list
// under the run barrier, so a mutation maintaining that list in place either
// finishes before the run starts or waits for it. Every runView issued while
// a mutation batch is being applied must therefore return exactly the
// from-scratch answer of the view before the batch or after it — never a
// blend. Run under -race: without the barrier the run reads the slice view
// maintenance is rewriting.
func TestRunViewRacesMutations(t *testing.T) {
	e, g := incTestEngine(t)
	defer e.Close()
	ctx := context.Background()
	if _, err := e.ExecuteContext(ctx, "create view mid on dyn edges where ts < 12"); err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	runView := func() (map[analytics.VertexValue]int64, error) {
		resp, err := sess.Do(ctx, &RunViewRequest{View: "mid", Algorithm: analytics.Spec{Algorithm: "wcc"}})
		if err != nil {
			return nil, err
		}
		return resp.(*ViewRunResult).Results, nil
	}
	r := rand.New(rand.NewSource(13))
	for round := 0; round < 12; round++ {
		before, err := runView()
		if err != nil {
			t.Fatal(err)
		}
		mb := randomBatch(t, r, g, 8, 6)
		started := make(chan struct{})
		var during []map[analytics.VertexValue]int64
		var runErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			for i := 0; i < 3 && runErr == nil; i++ {
				var res map[analytics.VertexValue]int64
				res, runErr = runView()
				during = append(during, res)
			}
		}()
		<-started
		if _, err := e.ApplyMutation("dyn", mb); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		<-done
		if runErr != nil {
			t.Fatalf("round %d: concurrent runView: %v", round, runErr)
		}
		after, err := runView()
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range during {
			if !reflect.DeepEqual(res, before) && !reflect.DeepEqual(res, after) {
				t.Fatalf("round %d: concurrent runView %d matches neither the view before the mutation nor after it", round, i)
			}
		}
	}
}
