package analytics

import (
	"math/rand"
	"testing"

	"graphsurge/internal/graph"
)

// FuzzSCCMatchesOracle runs the staged SCC runner over 8 versions of a
// random graph of 20–300 vertices whose average out-degree spans 1 to 2.25
// (below and above where a giant SCC appears), each version after the first
// deleting a share of the edges and adding new ones, on 1 or 3 workers. At
// every version Results must equal the Tarjan oracle and OutputDiffs the
// size of the difference between consecutive oracle answers.
func FuzzSCCMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), false)
	f.Add(int64(2), uint16(80), uint8(2), true)
	f.Add(int64(3), uint16(180), uint8(3), false)
	f.Add(int64(4), uint16(280), uint8(5), true)
	f.Add(int64(5), uint16(30), uint8(4), true)
	f.Add(int64(6), uint16(280), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, size uint16, degree uint8, multi bool) {
		n := 20 + int(size)%281
		m := n * (4 + int(degree)%6) / 4 // average out-degree 1, 1.25, ..., 2.25
		workers := 1
		if multi {
			workers = 3
		}
		// The default phase count: the fuzzed graphs must not need more.
		runner, err := NewRunner(&SCC{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		randEdge := func() graph.Triple {
			return graph.Triple{Src: uint64(r.Intn(n)), Dst: uint64(r.Intn(n)), W: int64(1 + r.Intn(3))}
		}
		var edges []graph.Triple
		prev := map[VertexValue]bool{}
		for v := 0; v < 8; v++ {
			var adds, dels []graph.Triple
			if v > 0 {
				for k := r.Intn(m/4 + 1); k > 0 && len(edges) > 0; k-- {
					i := r.Intn(len(edges))
					dels = append(dels, edges[i])
					edges[i] = edges[len(edges)-1]
					edges = edges[:len(edges)-1]
				}
			}
			for len(edges) < m {
				e := randEdge()
				adds = append(adds, e)
				edges = append(edges, e)
			}
			runner.Step(adds, dels)
			if runner.IterCapHit() {
				t.Fatalf("v%d: iteration cap hit, %d unassigned", v, runner.(*sccRunner).RemainingCount())
			}

			want := map[VertexValue]bool{}
			for id, color := range sccOracle(edges) {
				want[VertexValue{V: id, Val: color}] = true
			}
			got := runner.Results()
			if len(got) != len(want) {
				t.Fatalf("v%d (workers=%d): %d results, oracle %d", v, workers, len(got), len(want))
			}
			for vv, d := range got {
				if d != 1 || !want[vv] {
					t.Fatalf("v%d (workers=%d): %+v ×%d, not in the oracle", v, workers, vv, d)
				}
			}
			diffs := 0
			for vv := range want {
				if !prev[vv] {
					diffs++
				}
			}
			for vv := range prev {
				if !want[vv] {
					diffs++
				}
			}
			if od := runner.OutputDiffs(uint32(v)); od != diffs {
				t.Fatalf("v%d (workers=%d): OutputDiffs %d, oracle %d", v, workers, od, diffs)
			}
			prev = want
		}
	})
}
