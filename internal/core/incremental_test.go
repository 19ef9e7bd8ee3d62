package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/view"
)

// incTestEngine builds an engine with a small temporal graph and a
// four-view collection whose final view excludes some edges, so mutation
// deltas exercise both membership directions.
func incTestEngine(t *testing.T) (*Engine, *graph.Graph) {
	t.Helper()
	e, err := NewEngine(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 120, Edges: 900, Days: 20, Seed: 9})
	g.Name = "dyn"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(),
		"create view collection roll on dyn [a: ts < 6], [b: ts < 12], [c: duration <= 30], [d: ts < 18]"); err != nil {
		t.Fatal(err)
	}
	return e, g
}

// randomBatch builds a seeded random mutation batch: nIns inserts with
// random endpoints and properties, nDel deletions of randomly chosen live
// edges (deduplicated by endpoint pair).
func randomBatch(t *testing.T, r *rand.Rand, g *graph.Graph, nIns, nDel int) *graph.MutationBatch {
	t.Helper()
	ins := make([]graph.EdgeInsert, nIns)
	for i := range ins {
		ins[i] = graph.EdgeInsert{
			Src: uint64(r.Intn(g.NumNodes)),
			Dst: uint64(r.Intn(g.NumNodes)),
			Props: map[string]graph.Value{
				"ts":       graph.IntValue(int64(r.Intn(20))),
				"duration": graph.IntValue(int64(1 + r.Intn(60))),
			},
		}
	}
	var live []int
	for i := 0; i < g.NumEdges(); i++ {
		if g.EdgeAlive(i) {
			live = append(live, i)
		}
	}
	seen := map[[2]uint64]bool{}
	var dels []graph.EdgePair
	for len(dels) < nDel && len(live) > 0 {
		i := live[r.Intn(len(live))]
		key := [2]uint64{g.Srcs[i], g.Dsts[i]}
		if seen[key] {
			continue
		}
		seen[key] = true
		dels = append(dels, graph.EdgePair{Src: key[0], Dst: key[1]})
	}
	mb, err := graph.NewMutationBatch(g, ins, dels)
	if err != nil {
		t.Fatal(err)
	}
	return mb
}

// TestIncrementalMatchesScratchAllBuiltins is the dynamic-graph equivalence
// check: over a sequence of randomized mutation batches, an incremental
// re-run on the warm replica produces final results identical to a
// from-scratch run over the maintained collection — for every registered
// built-in algorithm spec. Run under -race in CI.
func TestIncrementalMatchesScratchAllBuiltins(t *testing.T) {
	e, g := incTestEngine(t)
	defer e.Close()
	col, _ := e.Collection("roll")
	ctx := context.Background()

	cases := []struct {
		spec   analytics.Spec
		weight string
	}{
		{analytics.Spec{Algorithm: "wcc"}, ""},
		{analytics.Spec{Algorithm: "bfs", Source: 0}, ""},
		{analytics.Spec{Algorithm: "sssp", Source: 0}, "duration"},
		{analytics.Spec{Algorithm: "pagerank", Iterations: 4}, ""},
		{analytics.Spec{Algorithm: "scc"}, ""},
		{analytics.Spec{Algorithm: "degree"}, ""},
		{analytics.Spec{Algorithm: "mpsp", Pairs: []analytics.Pair{{Src: 0, Dst: 5}, {Src: 3, Dst: 9}}}, "duration"},
	}

	comps := make([]analytics.Computation, len(cases))
	for i, c := range cases {
		comp, err := c.spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = comp
		// Cold build: the first incremental run absorbs the whole stream and
		// reports Incremental false.
		res, err := e.RunOn(ctx, col, comp, RunOptions{Incremental: true, WeightProp: c.weight})
		if err != nil {
			t.Fatalf("%s: cold run: %v", c.spec.Algorithm, err)
		}
		if res.Incremental {
			t.Fatalf("%s: cold run reported incremental", c.spec.Algorithm)
		}
		if len(res.Stats) != col.Stream.NumViews() {
			t.Fatalf("%s: cold run stats = %d, want %d", c.spec.Algorithm, len(res.Stats), col.Stream.NumViews())
		}
	}

	r := rand.New(rand.NewSource(41))
	for round := 1; round <= 3; round++ {
		mb := randomBatch(t, r, g, 10, 4)
		ma, err := e.ApplyMutation("dyn", mb)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if ma.Version != uint64(round) {
			t.Fatalf("round %d: version %d", round, ma.Version)
		}
		for i, c := range cases {
			inc, err := e.RunOn(ctx, col, comps[i], RunOptions{Incremental: true, WeightProp: c.weight})
			if err != nil {
				t.Fatalf("round %d %s: incremental: %v", round, c.spec.Algorithm, err)
			}
			if !inc.Incremental {
				t.Fatalf("round %d %s: warm run not incremental", round, c.spec.Algorithm)
			}
			if len(inc.Stats) != 1 || !strings.HasPrefix(inc.Stats[0].Name, "Δv") {
				t.Fatalf("round %d %s: warm stats %+v", round, c.spec.Algorithm, inc.Stats)
			}
			scratch, err := e.RunOn(ctx, col, comps[i], RunOptions{WeightProp: c.weight})
			if err != nil {
				t.Fatalf("round %d %s: scratch: %v", round, c.spec.Algorithm, err)
			}
			if !reflect.DeepEqual(inc.FinalResults(), scratch.FinalResults()) {
				t.Fatalf("round %d %s: incremental results diverge from scratch (%d vs %d vertices)",
					round, c.spec.Algorithm, len(inc.FinalResults()), len(scratch.FinalResults()))
			}
		}
	}
}

// TestIncrementalRunLifecycle pins the replica lifecycle: cold build, an
// idle warm run with nothing pending, delta-sized warm work after a
// mutation, and a cold rebuild after the collection is re-created.
func TestIncrementalRunLifecycle(t *testing.T) {
	e, g := incTestEngine(t)
	defer e.Close()
	col, _ := e.Collection("roll")
	ctx := context.Background()
	comp := analytics.WCC{}

	baseline, err := e.RunOn(ctx, col, comp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.RunOn(ctx, col, comp, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Incremental {
		t.Fatal("cold build reported incremental")
	}
	if !reflect.DeepEqual(cold.FinalResults(), baseline.FinalResults()) {
		t.Fatal("cold incremental build diverges from plain run")
	}

	// Nothing pending: the warm run is a no-op with empty stats.
	idle, err := e.RunOn(ctx, col, comp, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if !idle.Incremental || len(idle.Stats) != 0 {
		t.Fatalf("idle warm run: incremental=%v stats=%d", idle.Incremental, len(idle.Stats))
	}
	if !reflect.DeepEqual(idle.FinalResults(), baseline.FinalResults()) {
		t.Fatal("idle warm run changed results")
	}

	// One mutation, one delta: warm stats carry the delta version and the
	// delta's diff size, and results track a fresh run.
	r := rand.New(rand.NewSource(17))
	if _, err := e.ApplyMutation("dyn", randomBatch(t, r, g, 6, 2)); err != nil {
		t.Fatal(err)
	}
	warm, err := e.RunOn(ctx, col, comp, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Incremental || len(warm.Stats) != 1 {
		t.Fatalf("warm run: incremental=%v stats=%d", warm.Incremental, len(warm.Stats))
	}
	if warm.Stats[0].Name != "Δv1" {
		t.Fatalf("warm stats name = %q", warm.Stats[0].Name)
	}
	if warm.Stats[0].DiffSize > g.NumEdges() {
		t.Fatalf("warm diff size %d exceeds graph", warm.Stats[0].DiffSize)
	}
	fresh, err := e.RunOn(ctx, col, comp, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.FinalResults(), fresh.FinalResults()) {
		t.Fatal("warm run diverges from fresh run over the maintained collection")
	}

	// Re-creating the collection drops the replica: the next incremental
	// run rebuilds cold instead of serving state for the old object.
	if _, err := e.ExecuteContext(context.Background(),
		"create view collection roll on dyn [a: ts < 6], [b: ts < 12], [c: duration <= 30], [d: ts < 18]"); err != nil {
		t.Fatal(err)
	}
	col2, _ := e.Collection("roll")
	rebuilt, err := e.RunOn(ctx, col2, comp, RunOptions{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Incremental {
		t.Fatal("run after collection re-creation did not rebuild cold")
	}
	if !reflect.DeepEqual(rebuilt.FinalResults(), fresh.FinalResults()) {
		t.Fatal("rebuilt replica diverges")
	}
}

// TestIncrementalRefusals pins the two refusals: unidentifiable
// computations (whose printed identity cannot key a replica) and empty
// collections.
func TestIncrementalRefusals(t *testing.T) {
	e, _ := incTestEngine(t)
	defer e.Close()
	col, _ := e.Collection("roll")
	ctx := context.Background()

	comp := funcComp{weight: func(w int64) int64 { return w }}
	if _, err := e.RunOn(ctx, col, comp, RunOptions{Incremental: true}); err == nil {
		t.Fatal("incremental run accepted an unidentifiable computation")
	}
	// The same computation still runs non-incrementally.
	if _, err := e.RunOn(ctx, col, comp, RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSessionRoutesLocal pins that a RunRequest with Incremental
// set executes on the session's engine even when a remote runner is
// configured — the warm replica state lives on the engine.
func TestIncrementalSessionRoutesLocal(t *testing.T) {
	e, _ := incTestEngine(t)
	defer e.Close()
	sess := e.NewSession()
	refuse := refusingRunner{}
	resp, err := sess.Do(context.Background(), &RunRequest{
		Collection: "roll",
		Algorithm:  analytics.Spec{Algorithm: "degree"},
		Options:    RunOptions{Incremental: true},
		Runner:     refuse,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*RunResult).Incremental {
		t.Fatal("first incremental run reported incremental")
	}
}

// refusingRunner fails every run; tests use it to prove a path never
// dispatches to the configured runner.
type refusingRunner struct{}

func (refusingRunner) RunOn(context.Context, *view.Collection, analytics.Computation, RunOptions) (*RunResult, error) {
	return nil, fmt.Errorf("refusingRunner invoked")
}
