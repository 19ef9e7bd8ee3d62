package analytics

import (
	"fmt"
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
				if err := reused.Reset(); err != nil {
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
