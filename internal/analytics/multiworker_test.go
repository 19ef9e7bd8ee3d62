package analytics

import (
	"fmt"
	"math/rand"
	"testing"

	"graphsurge/internal/graph"
)

// TestMPSPMultiWorker covers MPSP's tagged-key sharding under parallelism.
func TestMPSPMultiWorker(t *testing.T) {
	pairs := []Pair{{Src: 0, Dst: 15}, {Src: 3, Dst: 8}, {Src: 5, Dst: 0}}
	for _, workers := range []int{1, 4} {
		inst, err := NewInstance(MPSP{Pairs: pairs}, workers)
		if err != nil {
			t.Fatal(err)
		}
		g := newEvolvingGraph(31, 18)
		for i, s := range []struct{ adds, dels int }{{45, 0}, {12, 10}} {
			added, deleted := g.step(s.adds, s.dels)
			inst.Step(graph.NewEdgeBatch(added), graph.NewEdgeBatch(deleted))
			want := map[uint64]int64{}
			for pi, p := range pairs {
				if d, ok := spOracle(g.edges(), p.Src, true)[p.Dst]; ok {
					want[MPSPVertex(pi, p.Dst)] = d
				}
			}
			checkAgainst(t, fmt.Sprintf("mpsp w%d v%d", workers, i), inst, want)
		}
	}
}

// TestPageRankMultiWorker covers the sum-reduce and degree join under
// parallelism (numeric paths, unlike the min-based algorithms).
func TestPageRankMultiWorker(t *testing.T) {
	for _, workers := range []int{2, 4} {
		runVersions(t, PageRank{Iterations: 5}, workers, 33, func(es []graph.Triple) map[uint64]int64 {
			return prOracle(es, 5)
		})
	}
}

// TestLargeRandomStress runs a bigger randomized sequence through WCC and
// SSSP than the per-version tests, as a smoke check for state handling over
// many versions with compaction.
func TestLargeRandomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rand.New(rand.NewSource(55))
	wcc, err := NewInstance(WCC{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sssp, err := NewInstance(SSSP{Source: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cur := map[graph.Triple]bool{}
	for v := 0; v < 30; v++ {
		var adds, dels []graph.Triple
		for i := 0; i < 30; i++ {
			e := graph.Triple{Src: uint64(r.Intn(60)), Dst: uint64(r.Intn(60)), W: int64(1 + r.Intn(5))}
			if cur[e] {
				delete(cur, e)
				dels = append(dels, e)
			} else {
				cur[e] = true
				adds = append(adds, e)
			}
		}
		wcc.Step(graph.NewEdgeBatch(adds), graph.NewEdgeBatch(dels))
		sssp.Step(graph.NewEdgeBatch(adds), graph.NewEdgeBatch(dels))
		if v%10 != 9 {
			continue // full check every 10th version keeps the test fast
		}
		var edges []graph.Triple
		for e := range cur {
			edges = append(edges, e)
		}
		checkAgainst(t, fmt.Sprintf("stress wcc v%d", v), wcc, wccOracle(edges))
		checkAgainst(t, fmt.Sprintf("stress sssp v%d", v), sssp, spOracle(edges, 1, true))
	}
}
