package analytics

import (
	"fmt"
	"math/rand"
	"testing"

	"graphsurge/internal/graph"
)

// evolvingGraph produces a deterministic sequence of edge-set versions with
// mixed additions and deletions, exercising differential execution.
type evolvingGraph struct {
	r   *rand.Rand
	n   uint64 // vertex universe
	cur map[graph.Triple]bool
}

func newEvolvingGraph(seed int64, n uint64) *evolvingGraph {
	return &evolvingGraph{r: rand.New(rand.NewSource(seed)), n: n, cur: make(map[graph.Triple]bool)}
}

func (g *evolvingGraph) randEdge() graph.Triple {
	s := g.r.Uint64() % g.n
	d := g.r.Uint64() % g.n
	w := int64(1 + g.r.Intn(9))
	return graph.Triple{Src: s, Dst: d, W: w}
}

// step mutates the edge set: adds new edges, removes existing ones. Returns
// the delta.
func (g *evolvingGraph) step(adds, dels int) (added, deleted []graph.Triple) {
	for len(added) < adds {
		e := g.randEdge()
		if !g.cur[e] {
			g.cur[e] = true
			added = append(added, e)
		}
	}
	if len(g.cur) > dels {
		for e := range g.cur {
			if len(deleted) >= dels {
				break
			}
			delete(g.cur, e)
			deleted = append(deleted, e)
		}
	}
	return added, deleted
}

func (g *evolvingGraph) edges() []graph.Triple {
	out := make([]graph.Triple, 0, len(g.cur))
	for e := range g.cur {
		out = append(out, e)
	}
	return out
}

// checkAgainst compares an instance's results with an oracle's per-vertex
// values.
func checkAgainst(t *testing.T, name string, inst *Instance, want map[uint64]int64) {
	t.Helper()
	got := inst.Results()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d\ngot:  %v\nwant: %v", name, len(got), len(want), got, want)
	}
	for vv, d := range got {
		if d != 1 {
			t.Fatalf("%s: multiplicity %d for %+v", name, d, vv)
		}
		w, ok := want[vv.V]
		if !ok || w != vv.Val {
			t.Fatalf("%s: vertex %d = %d, oracle %d (present=%v)", name, vv.V, vv.Val, w, ok)
		}
	}
}

// runVersions drives a computation over random graph versions, comparing
// every version against the oracle.
func runVersions(t *testing.T, comp Computation, workers int, seed int64, oracle func([]graph.Triple) map[uint64]int64) {
	t.Helper()
	inst, err := NewInstance(comp, workers)
	if err != nil {
		t.Fatal(err)
	}
	g := newEvolvingGraph(seed, 24)
	steps := []struct{ adds, dels int }{{40, 0}, {10, 6}, {0, 12}, {25, 10}, {5, 5}}
	for i, s := range steps {
		added, deleted := g.step(s.adds, s.dels)
		inst.Step(graph.NewEdgeBatch(added), graph.NewEdgeBatch(deleted))
		if inst.Scope().IterCapHit.Load() {
			t.Fatalf("version %d: iteration cap hit", i)
		}
		checkAgainst(t, fmt.Sprintf("%s v%d", comp.Name(), i), inst, oracle(g.edges()))
	}
}

func TestWCCMatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		runVersions(t, WCC{}, workers, 11, wccOracle)
	}
}

func TestDegreeMatchesOracle(t *testing.T) {
	runVersions(t, Degree{}, 1, 12, degreeOracle)
}

func TestBFSMatchesOracle(t *testing.T) {
	runVersions(t, BFS{Source: 0}, 1, 13, func(es []graph.Triple) map[uint64]int64 {
		return spOracle(es, 0, false)
	})
}

func TestSSSPMatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 3} {
		runVersions(t, SSSP{Source: 0}, workers, 14, func(es []graph.Triple) map[uint64]int64 {
			return spOracle(es, 0, true)
		})
	}
}

func TestPageRankMatchesOracle(t *testing.T) {
	runVersions(t, PageRank{Iterations: 6}, 1, 15, func(es []graph.Triple) map[uint64]int64 {
		return prOracle(es, 6)
	})
}

func TestSCCMatchesOracle(t *testing.T) {
	for _, workers := range []int{1, 3} {
		runner, err := NewRunner(SCC{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		g := newEvolvingGraph(16, 16)
		steps := []struct{ adds, dels int }{{30, 0}, {8, 4}, {0, 10}, {15, 5}}
		for i, s := range steps {
			added, deleted := g.step(s.adds, s.dels)
			runner.Step(graph.NewEdgeBatch(added), graph.NewEdgeBatch(deleted))
			if runner.IterCapHit() {
				t.Fatalf("version %d: iteration cap hit", i)
			}
			want := sccOracle(g.edges())
			got := runner.Results()
			if len(got) != len(want) {
				t.Fatalf("scc v%d (workers=%d): %d results, oracle %d", i, workers, len(got), len(want))
			}
			for vv, d := range got {
				if d != 1 || want[vv.V] != vv.Val {
					t.Fatalf("scc v%d (workers=%d): vertex %d = %d, oracle %d", i, workers, vv.V, vv.Val, want[vv.V])
				}
			}
			if runner.OutputDiffs() == 0 && len(added)+len(deleted) > 0 && i == 0 {
				t.Fatal("no output diffs recorded")
			}
		}
	}
}

func TestSCCBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SCC{}.Build(nil)
}

func TestMPSPMatchesOracle(t *testing.T) {
	pairs := []Pair{{Src: 0, Dst: 7}, {Src: 1, Dst: 3}, {Src: 2, Dst: 9}}
	inst, err := NewInstance(MPSP{Pairs: pairs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newEvolvingGraph(17, 20)
	steps := []struct{ adds, dels int }{{40, 0}, {10, 8}, {20, 10}}
	for i, s := range steps {
		added, deleted := g.step(s.adds, s.dels)
		inst.Step(graph.NewEdgeBatch(added), graph.NewEdgeBatch(deleted))
		want := map[uint64]int64{}
		for pi, p := range pairs {
			d := spOracle(g.edges(), p.Src, true)
			if dist, ok := d[p.Dst]; ok {
				want[MPSPVertex(pi, p.Dst)] = dist
			}
		}
		checkAgainst(t, fmt.Sprintf("mpsp v%d", i), inst, want)
	}
}

// TestScratchEqualsDifferential verifies the core system property: running a
// computation differentially across versions produces exactly the per-view
// results of fresh from-scratch runs.
func TestScratchEqualsDifferential(t *testing.T) {
	comps := []func() Computation{
		func() Computation { return WCC{} },
		func() Computation { return SSSP{Source: 0} },
		func() Computation { return PageRank{Iterations: 5} },
	}
	for _, mk := range comps {
		diff, err := NewInstance(mk(), 1)
		if err != nil {
			t.Fatal(err)
		}
		g := newEvolvingGraph(21, 24)
		for _, s := range []struct{ adds, dels int }{{35, 0}, {12, 9}, {6, 14}} {
			added, deleted := g.step(s.adds, s.dels)
			diff.Step(graph.NewEdgeBatch(added), graph.NewEdgeBatch(deleted))

			scratch, err := NewInstance(mk(), 1)
			if err != nil {
				t.Fatal(err)
			}
			scratch.Step(graph.NewEdgeBatch(g.edges()), nil)

			dr, sr := diff.Results(), scratch.Results()
			if len(dr) != len(sr) {
				t.Fatalf("%s: diff %d results, scratch %d", mk().Name(), len(dr), len(sr))
			}
			for k, v := range sr {
				if dr[k] != v {
					t.Fatalf("%s: %+v diff=%d scratch=%d", mk().Name(), k, dr[k], v)
				}
			}
		}
	}
}

func TestInstanceBasics(t *testing.T) {
	inst, err := NewInstance(WCC{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Results()) != 0 || inst.OutputDiffs() != 0 {
		t.Fatal("results before feeding")
	}
	d := inst.Step(graph.NewEdgeBatch([]graph.Triple{{Src: 1, Dst: 2, W: 1}}), nil)
	if d <= 0 {
		t.Fatal("no duration")
	}
	if inst.OutputDiffs() != 2 {
		t.Fatalf("output diffs = %d", inst.OutputDiffs())
	}
	// A step that changes nothing reports no difference, not the last one.
	inst.Step(nil, nil)
	if inst.OutputDiffs() != 0 {
		t.Fatalf("output diffs of an empty step = %d", inst.OutputDiffs())
	}
	if len(inst.Results()) != 2 {
		t.Fatal("results after an empty step")
	}
}

type noOutput struct{}

func (noOutput) Name() string   { return "no-output" }
func (noOutput) Build(*Builder) {}

func TestNewInstanceRequiresOutput(t *testing.T) {
	if _, err := NewInstance(noOutput{}, 1); err == nil {
		t.Fatal("expected error for computation without output")
	}
}
