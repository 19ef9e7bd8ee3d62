package analytics

import (
	"fmt"
	"slices"
	"testing"

	"graphsurge/internal/graph"
)

func TestEmptyViewThenGrow(t *testing.T) {
	// Feeding an empty first view then growing must not wedge any
	// algorithm.
	comps := []Computation{WCC{}, BFS{Source: 1}, SSSP{Source: 1}, PageRank{Iterations: 4}, Degree{}}
	for _, comp := range comps {
		inst, err := NewRunner(comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		inst.Step(nil, nil)
		if got := inst.Results(); len(got) != 0 {
			t.Fatalf("%s: results on empty view: %v", comp.Name(), got)
		}
		inst.Step(graph.NewEdgeBatch([]graph.Triple{{Src: 1, Dst: 2, W: 3}}), nil)
		if got := inst.Results(); len(got) == 0 {
			t.Fatalf("%s: no results after growth", comp.Name())
		}
		// Shrink back to empty.
		inst.Step(nil, graph.NewEdgeBatch([]graph.Triple{{Src: 1, Dst: 2, W: 3}}))
		if got := inst.Results(); len(got) != 0 {
			t.Fatalf("%s: results after emptying: %v", comp.Name(), got)
		}
	}
}

func TestSelfLoopsAndParallelEdges(t *testing.T) {
	edges := []graph.Triple{
		{Src: 1, Dst: 1, W: 5}, // self loop
		{Src: 1, Dst: 2, W: 3},
		{Src: 1, Dst: 2, W: 7}, // parallel edge, different weight
		{Src: 2, Dst: 3, W: 1},
	}
	inst, err := NewInstance(SSSP{Source: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst.Step(graph.NewEdgeBatch(edges), nil)
	want := spOracle(edges, 1, true)
	got := inst.Results()
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for vv := range got {
		if want[vv.V] != vv.Val {
			t.Fatalf("vertex %d: got %d want %d", vv.V, vv.Val, want[vv.V])
		}
	}

	// WCC with a duplicated edge, then removing one copy: the component
	// must survive until the second copy goes.
	w, err := NewInstance(WCC{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dup := graph.Triple{Src: 5, Dst: 6, W: 1}
	w.Step(graph.NewEdgeBatch([]graph.Triple{dup, dup}), nil)
	if len(w.Results()) != 2 {
		t.Fatalf("results %v", w.Results())
	}
	w.Step(nil, graph.NewEdgeBatch([]graph.Triple{dup}))
	if got := w.Results(); len(got) != 2 || got[VertexValue{V: 6, Val: 5}] != 1 {
		t.Fatalf("after removing one copy: %v", got)
	}
	w.Step(nil, graph.NewEdgeBatch([]graph.Triple{dup}))
	if got := w.Results(); len(got) != 0 {
		t.Fatalf("after removing both copies: %v", got)
	}
}

func TestBFSDisconnectedSource(t *testing.T) {
	inst, err := NewInstance(BFS{Source: 99}, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst.Step(graph.NewEdgeBatch([]graph.Triple{{Src: 1, Dst: 2, W: 1}}), nil)
	if got := inst.Results(); len(got) != 0 {
		t.Fatalf("unreachable source produced %v", got)
	}
	// Source appears later.
	inst.Step(graph.NewEdgeBatch([]graph.Triple{{Src: 99, Dst: 1, W: 1}}), nil)
	want := map[uint64]int64{99: 0, 1: 1, 2: 2}
	got := inst.Results()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for vv := range got {
		if want[vv.V] != vv.Val {
			t.Fatalf("vertex %d = %d", vv.V, vv.Val)
		}
	}
}

// TestSCCChainIsComplete runs a chain of two-vertex cycles, each pointing at
// the one below it. It needs one phase per cycle: every vertex lies on a
// cycle, so the trim sets none aside, and the top cycle's color floods the
// chain, so a phase confirms one cycle. The runner must build as many phases
// as that takes, keep them exact as the links are cut (every cycle settles
// in one phase) and restored, and never flag the answer.
func TestSCCChainIsComplete(t *testing.T) {
	var cycles, links []graph.Triple
	for i := uint64(0); i < 11; i++ {
		a, b := 2*i, 2*i+1
		cycles = append(cycles, graph.Triple{Src: a, Dst: b, W: 1}, graph.Triple{Src: b, Dst: a, W: 1})
		if i > 0 {
			links = append(links, graph.Triple{Src: a, Dst: a - 1, W: 1}) // Cᵢ → Cᵢ₋₁
		}
	}
	all := append(append([]graph.Triple(nil), cycles...), links...)
	runner, err := NewRunner(SCC{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	runner.Step(graph.NewEdgeBatch(all), nil)
	prev := checkSCCVersion(t, runner, 0, all, nil)
	runner.Step(nil, graph.NewEdgeBatch(links))
	prev = checkSCCVersion(t, runner, 1, cycles, prev)
	runner.Step(graph.NewEdgeBatch(links), nil)
	checkSCCVersion(t, runner, 2, all, prev)
}

// TestSCCPhaseBornLate builds phase 1 at version 1, when 3 → 1 makes {1, 2}
// reachable from the larger cycle {3, 4}. The new phase must start from all
// of phase 0's core edges, 1 ↔ 2 included, not only those version 1 added:
// without 1 ↔ 2 its trim would set 1 and 2 aside as singles.
func TestSCCPhaseBornLate(t *testing.T) {
	v0 := []graph.Triple{{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 1}}
	v1 := []graph.Triple{{Src: 3, Dst: 4, W: 1}, {Src: 4, Dst: 3, W: 1}, {Src: 3, Dst: 1, W: 1}}
	for _, workers := range []int{1, 3} {
		runner, err := NewRunner(SCC{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		runner.Step(graph.NewEdgeBatch(v0), nil)
		prev := checkSCCVersion(t, runner, 0, v0, nil)
		runner.Step(graph.NewEdgeBatch(v1), nil)
		got := checkSCCVersion(t, runner, 1, append(append([]graph.Triple(nil), v0...), v1...), prev)
		for _, vv := range []VertexValue{{V: 1, Val: 2}, {V: 2, Val: 2}, {V: 3, Val: 4}, {V: 4, Val: 4}} {
			if !got[vv] {
				t.Fatalf("workers=%d: %+v missing", workers, vv)
			}
		}
		if n := len(runner.(*sccRunner).phases); n != 2 {
			t.Fatalf("workers=%d: %d phases built, want 2", workers, n)
		}
	}
}

func TestSCCLargeCycles(t *testing.T) {
	// Two large cycles joined by a one-way bridge: exactly two SCCs.
	var edges []graph.Triple
	for i := uint64(0); i < 50; i++ {
		edges = append(edges, graph.Triple{Src: i, Dst: (i + 1) % 50, W: 1})
		edges = append(edges, graph.Triple{Src: 100 + i, Dst: 100 + (i+1)%50, W: 1})
	}
	edges = append(edges, graph.Triple{Src: 0, Dst: 100, W: 1})
	runner, err := NewRunner(SCC{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	runner.Step(graph.NewEdgeBatch(edges), nil)
	got := runner.Results()
	want := sccOracle(edges)
	if len(got) != len(want) {
		t.Fatalf("%d results, oracle %d", len(got), len(want))
	}
	for vv := range got {
		if want[vv.V] != vv.Val {
			t.Fatalf("vertex %d = %d want %d", vv.V, vv.Val, want[vv.V])
		}
	}
}

func TestPageRankDefaults(t *testing.T) {
	inst, err := NewInstance(PageRank{}, 1) // default 10 iterations
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Triple{{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 1}}
	inst.Step(graph.NewEdgeBatch(edges), nil)
	want := prOracle(edges, 10)
	for vv := range inst.Results() {
		if want[vv.V] != vv.Val {
			t.Fatalf("vertex %d = %d want %d", vv.V, vv.Val, want[vv.V])
		}
	}
}

func TestMPSPSamePairEndpoints(t *testing.T) {
	// A pair whose src == dst has distance 0 once the vertex exists.
	inst, err := NewInstance(MPSP{Pairs: []Pair{{Src: 3, Dst: 3}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst.Step(graph.NewEdgeBatch([]graph.Triple{{Src: 3, Dst: 4, W: 2}}), nil)
	got := inst.Results()
	if got[VertexValue{V: MPSPVertex(0, 3), Val: 0}] != 1 {
		t.Fatalf("got %v", got)
	}
}

// TestShortestPathRootsFollowSource holds bfs, sssp and mpsp to the oracle
// while their sources come and go: a source absent from the view, then
// present with out-, in- and self-loop edges, then stripped of every
// incident edge, then back with only a self-loop, then back in full; a
// source with only in-edges; a source whose only edge is a self-loop; and
// two pairs sharing a source. The roots are the sources the view's edges
// touch, so a root must come and go with its source's incident edges.
func TestShortestPathRootsFollowSource(t *testing.T) {
	base := []graph.Triple{{Src: 2, Dst: 3, W: 2}, {Src: 3, Dst: 4, W: 1}, {Src: 4, Dst: 5, W: 4}}
	with := func(es []graph.Triple, more ...graph.Triple) []graph.Triple {
		return append(append([]graph.Triple(nil), es...), more...)
	}
	views := [][]graph.Triple{
		base, // 1 and 6 absent, 5 has only an in-edge
		with(base, graph.Triple{Src: 1, Dst: 2, W: 5}, graph.Triple{Src: 4, Dst: 1, W: 1}, graph.Triple{Src: 1, Dst: 1, W: 3}, graph.Triple{Src: 6, Dst: 6, W: 2}),
		with(base, graph.Triple{Src: 6, Dst: 6, W: 2}, graph.Triple{Src: 2, Dst: 5, W: 1}), // 1 lost every incident edge
		with(base, graph.Triple{Src: 6, Dst: 6, W: 2}, graph.Triple{Src: 2, Dst: 5, W: 1}, graph.Triple{Src: 1, Dst: 1, W: 1}),
		with(base, graph.Triple{Src: 2, Dst: 5, W: 1}, graph.Triple{Src: 1, Dst: 1, W: 1}, graph.Triple{Src: 3, Dst: 1, W: 2}, graph.Triple{Src: 1, Dst: 3, W: 1}),
		base,
	}
	pairs := []Pair{{Src: 1, Dst: 4}, {Src: 1, Dst: 3}, {Src: 5, Dst: 5}, {Src: 5, Dst: 2}, {Src: 6, Dst: 6}, {Src: 2, Dst: 1}, {Src: 7, Dst: 7}}
	mpspOracle := func(edges []graph.Triple) map[uint64]int64 {
		want := map[uint64]int64{}
		for i, p := range pairs {
			if d, ok := spOracle(edges, p.Src, true)[p.Dst]; ok {
				want[MPSPVertex(i, p.Dst)] = d
			}
		}
		return want
	}
	type run struct {
		comp   Computation
		oracle func([]graph.Triple) map[uint64]int64
	}
	runs := []run{{MPSP{Pairs: pairs}, mpspOracle}}
	for _, src := range []uint64{1, 5, 6, 7} {
		runs = append(runs,
			run{BFS{Source: src}, func(es []graph.Triple) map[uint64]int64 { return spOracle(es, src, false) }},
			run{SSSP{Source: src}, func(es []graph.Triple) map[uint64]int64 { return spOracle(es, src, true) }})
	}
	for _, workers := range []int{1, 3} {
		for _, r := range runs {
			inst, err := NewInstance(r.comp, workers)
			if err != nil {
				t.Fatal(err)
			}
			var prev []graph.Triple
			for v, view := range views {
				adds, dels := edgeChange(prev, view)
				inst.Step(graph.NewEdgeBatch(adds), graph.NewEdgeBatch(dels))
				checkAgainst(t, fmt.Sprintf("%s %+v, %d workers, version %d", r.comp.Name(), r.comp, workers, v), inst, r.oracle(view))
				prev = view
			}
		}
	}
}

// edgeChange returns the edges to add and to delete to turn view from into
// view to (each edge at most once in either).
func edgeChange(from, to []graph.Triple) (adds, dels []graph.Triple) {
	for _, e := range to {
		if !slices.Contains(from, e) {
			adds = append(adds, e)
		}
	}
	for _, e := range from {
		if !slices.Contains(to, e) {
			dels = append(dels, e)
		}
	}
	return adds, dels
}
