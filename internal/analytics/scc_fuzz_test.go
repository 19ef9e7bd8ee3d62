package analytics

import (
	"math/rand"
	"testing"

	"graphsurge/internal/graph"
)

// checkSCCVersion holds the runner's state after version v to the Tarjan
// oracle on edges: Results must equal its answer, OutputDiffs the size of the
// difference from prev (the previous version's answer), and no fixpoint may
// have hit the iteration cap. It returns this version's answer.
func checkSCCVersion(t *testing.T, runner Runner, v int, edges []graph.Triple, prev map[VertexValue]bool) map[VertexValue]bool {
	t.Helper()
	if runner.IterCapHit() {
		t.Fatalf("v%d: iteration cap hit", v)
	}
	want := map[VertexValue]bool{}
	for id, color := range sccOracle(edges) {
		want[VertexValue{V: id, Val: color}] = true
	}
	got := runner.Results()
	if len(got) != len(want) {
		t.Fatalf("v%d: %d results, oracle %d", v, len(got), len(want))
	}
	for vv, d := range got {
		if d != 1 || !want[vv] {
			t.Fatalf("v%d: %+v ×%d, not in the oracle", v, vv, d)
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
	if od := runner.OutputDiffs(); od != diffs {
		t.Fatalf("v%d: OutputDiffs %d, oracle %d", v, od, diffs)
	}
	return want
}

// FuzzSCCMatchesOracle runs the staged SCC runner over 8 versions of a
// random graph of 20–300 vertices whose average out-degree spans 1 to 2.25
// (below and above where a giant SCC appears), each version after the first
// deleting a share of the edges and adding new ones, on 1 or 3 workers. A
// chain of 0–12 two-vertex cycles with IDs above the random graph's, each
// linked to the one below it, is threaded in: its lowest cycle points into
// the graph and a graph vertex points at its top cycle. Each link starts
// present at random and every later version cuts or restores it at random,
// so the phases the chain needs (one per cycle) are born and emptied
// mid-stream. At every version Results must
// equal the Tarjan oracle and OutputDiffs the size of the difference between
// consecutive oracle answers.
func FuzzSCCMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), false, uint8(0))
	f.Add(int64(2), uint16(80), uint8(2), true, uint8(0))
	f.Add(int64(3), uint16(180), uint8(3), false, uint8(0))
	f.Add(int64(4), uint16(280), uint8(5), true, uint8(0))
	f.Add(int64(5), uint16(30), uint8(4), true, uint8(0))
	f.Add(int64(6), uint16(280), uint8(1), false, uint8(0))
	f.Add(int64(12), uint16(144), uint8(0), true, uint8(5))
	f.Add(int64(17), uint16(29), uint8(5), false, uint8(10))
	f.Add(int64(19), uint16(103), uint8(1), false, uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, degree uint8, multi bool, chain uint8) {
		n := 20 + int(size)%281
		m := n * (4 + int(degree)%6) / 4 // average out-degree 1, 1.25, ..., 2.25
		workers := 1
		if multi {
			workers = 3
		}
		runner, err := NewRunner(SCC{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed))
		randEdge := func() graph.Triple {
			return graph.Triple{Src: uint64(r.Intn(n)), Dst: uint64(r.Intn(n)), W: int64(1 + r.Intn(3))}
		}

		// Cycle i of the chain is {base+2i, base+2i+1}; its link points
		// from base+2i at base+2i−1, in cycle i−1.
		cycles := int(chain) % 13
		base := uint64(n)
		var fixed, links []graph.Triple
		for i := 0; i < cycles; i++ {
			a, b := base+uint64(2*i), base+uint64(2*i+1)
			fixed = append(fixed, graph.Triple{Src: a, Dst: b, W: 1}, graph.Triple{Src: b, Dst: a, W: 1})
			if i > 0 {
				links = append(links, graph.Triple{Src: a, Dst: a - 1, W: 1})
			}
		}
		if cycles > 0 {
			fixed = append(fixed,
				graph.Triple{Src: base, Dst: uint64(r.Intn(n)), W: 1},
				graph.Triple{Src: uint64(r.Intn(n)), Dst: base + uint64(2*cycles-1), W: 1})
		}
		linked := make([]bool, len(links))

		var edges []graph.Triple
		prev := map[VertexValue]bool{}
		for v := 0; v < 8; v++ {
			var adds, dels []graph.Triple
			if v == 0 {
				adds = append(adds, fixed...)
			} else {
				for k := r.Intn(m/4 + 1); k > 0 && len(edges) > 0; k-- {
					i := r.Intn(len(edges))
					dels = append(dels, edges[i])
					edges[i] = edges[len(edges)-1]
					edges = edges[:len(edges)-1]
				}
			}
			for i, l := range links {
				if r.Intn(2) == 0 {
					continue
				}
				if linked[i] {
					dels = append(dels, l)
				} else {
					adds = append(adds, l)
				}
				linked[i] = !linked[i]
			}
			for len(edges) < m {
				e := randEdge()
				adds = append(adds, e)
				edges = append(edges, e)
			}
			runner.Step(graph.NewEdgeBatch(adds), graph.NewEdgeBatch(dels))

			all := append(append([]graph.Triple(nil), edges...), fixed...)
			for i, l := range links {
				if linked[i] {
					all = append(all, l)
				}
			}
			prev = checkSCCVersion(t, runner, v, all, prev)
		}
	})
}
