package analytics

import (
	"fmt"
	"reflect"
	"testing"

	"graphsurge/internal/graph"
)

// resetSeq builds a deterministic multi-view edge-update sequence over a
// small vertex universe with a simple LCG: view 0 loads a base edge set,
// later views add and delete a few edges each. Weights are small positive
// integers so SSSP exercises real weighted relaxation.
type viewDelta struct {
	adds, dels []graph.Triple
}

func resetSeq() []viewDelta {
	const vertices = 24
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	triple := func() graph.Triple {
		src := next(vertices)
		dst := next(vertices)
		if dst == src {
			dst = (src + 1) % vertices
		}
		return graph.Triple{Src: src, Dst: dst, W: int64(next(9)) + 1}
	}
	var base []graph.Triple
	seen := map[graph.Triple]bool{}
	// Guarantee the BFS/SSSP source (vertex 1) is present and a cycle exists
	// so SCC has nontrivial components.
	for _, t := range []graph.Triple{{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 2}, {Src: 3, Dst: 1, W: 1}} {
		base = append(base, t)
		seen[t] = true
	}
	for len(base) < 40 {
		tr := triple()
		if !seen[tr] {
			seen[tr] = true
			base = append(base, tr)
		}
	}
	seq := []viewDelta{{adds: base}}
	live := append([]graph.Triple(nil), base...)
	for v := 0; v < 3; v++ {
		var d viewDelta
		for i := 0; i < 4; i++ {
			// Delete a live edge (deterministically chosen), add a fresh one.
			di := int(next(uint64(len(live))))
			d.dels = append(d.dels, live[di])
			live = append(live[:di], live[di+1:]...)
			tr := triple()
			for seen[tr] {
				tr = triple()
			}
			seen[tr] = true
			d.adds = append(d.adds, tr)
			live = append(live, tr)
		}
		seq = append(seq, d)
	}
	return seq
}

// runSeq feeds the full view sequence to a runner and snapshots everything
// the executor reads: per-version output-diff counts, final results, and the
// iteration-cap flag.
func runSeq(r Runner, seq []viewDelta) ([]int, map[VertexValue]int64, bool) {
	diffs := make([]int, len(seq))
	for v, d := range seq {
		r.Step(graph.NewEdgeBatch(d.adds), graph.NewEdgeBatch(d.dels))
		diffs[v] = r.OutputDiffs()
	}
	return diffs, r.Results(), r.IterCapHit()
}

// TestResetEquivalence is the recycled-runner contract for every built-in
// algorithm, including the staged SCC runner: after running an arbitrary
// warm-up sequence and resetting, a runner must be indistinguishable from a
// freshly built one — identical Results, per-version OutputDiffs, and
// IterCapHit over the same view sequence.
func TestResetEquivalence(t *testing.T) {
	comps := []Computation{
		WCC{},
		Degree{},
		BFS{Source: 1},
		SSSP{Source: 1},
		PageRank{},
		SCC{},
	}
	seq := resetSeq()
	for _, comp := range comps {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w=%d", comp.Name(), workers), func(t *testing.T) {
				fresh, err := NewRunner(comp, workers)
				if err != nil {
					t.Fatal(err)
				}
				wantDiffs, wantResults, wantCap := runSeq(fresh, seq)

				reused, err := NewRunner(comp, workers)
				if err != nil {
					t.Fatal(err)
				}
				// Dirty the runner with a different prefix, then reset.
				reused.Step(graph.NewEdgeBatch(seq[0].adds[:10]), nil)
				reused.Step(graph.NewEdgeBatch(seq[1].adds), nil)
				if err := reused.Reset(comp); err != nil {
					t.Fatal(err)
				}
				if len(reused.Results()) != 0 || reused.OutputDiffs() != 0 {
					t.Fatal("reset runner still has an answer")
				}
				gotDiffs, gotResults, gotCap := runSeq(reused, seq)

				for v := range wantDiffs {
					if gotDiffs[v] != wantDiffs[v] {
						t.Fatalf("v%d: OutputDiffs = %d, fresh %d", v, gotDiffs[v], wantDiffs[v])
					}
				}
				if gotCap != wantCap {
					t.Fatalf("IterCapHit = %v, fresh %v", gotCap, wantCap)
				}
				if len(gotResults) != len(wantResults) {
					t.Fatalf("%d results, fresh %d", len(gotResults), len(wantResults))
				}
				for vv, d := range wantResults {
					if gotResults[vv] != d {
						t.Fatalf("result %+v = %d, fresh %d", vv, gotResults[vv], d)
					}
				}
			})
		}
	}
}

// TestResetRebindsRoots is the rebind contract of bfs, sssp and mpsp: a
// runner stepped for one root set and then reset for another must equal a
// runner built fresh for the second, at every version: Results and
// OutputDiffs, and at one worker the work too (at more workers the work
// depends on the scope's partition seed, which a reset keeps). Vertex 30
// appears only in the last view, so a rebind to it starts from a root with
// no edges; the mpsp cases change the pair count. A computation of another
// shape is refused and leaves the runner as it was.
func TestResetRebindsRoots(t *testing.T) {
	seq := append(resetSeq(), viewDelta{adds: []graph.Triple{{Src: 30, Dst: 1, W: 2}, {Src: 5, Dst: 30, W: 1}}})
	cases := []struct{ a, b Computation }{
		{BFS{Source: 1}, BFS{Source: 30}},
		{BFS{Source: 30}, BFS{Source: 2}},
		{SSSP{Source: 1}, SSSP{Source: 30}},
		{SSSP{Source: 3}, SSSP{Source: 7}},
		{MPSP{Pairs: []Pair{{Src: 1, Dst: 3}}}, MPSP{Pairs: []Pair{{Src: 30, Dst: 2}, {Src: 2, Dst: 30}, {Src: 4, Dst: 9}}}},
		{MPSP{Pairs: []Pair{{Src: 1, Dst: 3}, {Src: 2, Dst: 5}, {Src: 7, Dst: 1}}}, MPSP{Pairs: []Pair{{Src: 3, Dst: 30}}}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%v/w=%d", c.b.Name(), c.b, workers), func(t *testing.T) {
				fresh, err := NewRunner(c.b, workers)
				if err != nil {
					t.Fatal(err)
				}
				rebound, err := NewRunner(c.a, workers)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range seq[:3] {
					rebound.Step(graph.NewEdgeBatch(d.adds), graph.NewEdgeBatch(d.dels))
				}
				if err := rebound.Reset(c.b); err != nil {
					t.Fatal(err)
				}
				for v, d := range seq {
					fresh.Step(graph.NewEdgeBatch(d.adds), graph.NewEdgeBatch(d.dels))
					rebound.Step(graph.NewEdgeBatch(d.adds), graph.NewEdgeBatch(d.dels))
					if got, want := rebound.Results(), fresh.Results(); !reflect.DeepEqual(got, want) {
						t.Fatalf("v%d: results %v, fresh %v", v, got, want)
					}
					if got, want := rebound.OutputDiffs(), fresh.OutputDiffs(); got != want {
						t.Fatalf("v%d: OutputDiffs = %d, fresh %d", v, got, want)
					}
					if got, want := rebound.WorkCounts(), fresh.WorkCounts(); workers == 1 && !reflect.DeepEqual(got, want) {
						t.Fatalf("v%d: work %v, fresh %v", v, got, want)
					}
				}
			})
		}
	}

	r, err := NewRunner(BFS{Source: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Step(graph.NewEdgeBatch(seq[0].adds), nil)
	before := r.Results()
	for _, other := range []Computation{SSSP{Source: 1}, MPSP{Pairs: []Pair{{Src: 1, Dst: 2}}}, WCC{}, PageRank{}, SCC{}} {
		if err := r.Reset(other); err == nil {
			t.Fatalf("a bfs runner was reset for %s", other.Name())
		}
	}
	if got := r.Results(); !reflect.DeepEqual(got, before) {
		t.Fatal("a refused Reset changed the runner's answer")
	}
	if err := r.Reset(BFS{Source: 2}); err != nil {
		t.Fatal(err)
	}
	scc, err := NewRunner(SCC{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scc.Reset(WCC{}) == nil || scc.Reset(SCC{}) != nil {
		t.Fatal("an scc runner must serve scc and only scc")
	}
	if pr, err := NewRunner(PageRank{Iterations: 5}, 1); err != nil || pr.Reset(PageRank{Iterations: 6}) == nil {
		t.Fatalf("a PageRank runner of 5 iterations was reset for 6 (%v)", err)
	}
}
