package analytics

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"graphsurge/internal/graph"
)

// orderVersions builds a graph whose edge rows are random triples in
// creation order, and versions of it as difference sets of ascending edge
// indices, the shape a view collection's stream has: every version adds
// `adds` new rows and deletes `dels` random members. Index order is thus
// unrelated to (src, dst, w) order.
func orderVersions(seed int64, nodes, versions, adds, dels int) (*graph.Graph, [][2][]uint32) {
	r := rand.New(rand.NewSource(seed))
	g := &graph.Graph{Name: "order", NumNodes: nodes, EdgeProps: graph.NewPropTable([]graph.PropDef{{Name: "w", Type: graph.TypeInt}})}
	var members []uint32
	out := make([][2][]uint32, versions)
	for v := range out {
		var del []uint32
		if len(members) > 0 {
			r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			del, members = slices.Clone(members[:dels]), members[dels:]
			slices.Sort(del)
		}
		var add []uint32
		for range adds {
			add = append(add, uint32(len(g.Srcs)))
			g.Srcs = append(g.Srcs, uint64(r.Intn(nodes)))
			g.Dsts = append(g.Dsts, uint64(r.Intn(nodes)))
			g.EdgeProps.Cols[0].Ints = append(g.EdgeProps.Cols[0].Ints, int64(1+r.Intn(9)))
		}
		members = append(members, add...)
		out[v] = [2][]uint32{add, del}
	}
	return g, out
}

// orderStep is one version's observable outcome.
type orderStep struct {
	results map[VertexValue]int64
	diffs   int
	work    int64
}

// TestStepOrderIsImmaterial pins what lets a local run feed a view's edges
// by reference, in edge-index order, while a shard feeds the same multiset
// as a sorted EdgeBatch: for every built-in, the two give identical results
// and output differences at 1, 2 and 3 workers, and identical work at 1
// worker (the bench's setting, and the adaptive optimizer's cost). The views
// are larger than the input's chunk of 1 024 rows, so chunks split at
// different edges in the two runs.
func TestStepOrderIsImmaterial(t *testing.T) {
	g, versions := orderVersions(62, 1000, 3, 1500, 400)
	const wc = 0
	comps := []Computation{
		WCC{}, BFS{Source: 1}, SSSP{Source: 1}, MPSP{Pairs: []Pair{{Src: 1, Dst: 40}, {Src: 9, Dst: 2}}},
		PageRank{Iterations: 10}, SCC{}, Degree{},
	}
	run := func(comp Computation, workers int, sorted bool) []orderStep {
		r, err := NewRunner(comp, workers)
		if err != nil {
			t.Fatal(err)
		}
		var out []orderStep
		for _, v := range versions {
			adds, dels := graph.EdgeRefs{G: g, W: wc, Idx: v[0]}, graph.EdgeRefs{G: g, W: wc, Idx: v[1]}
			if sorted {
				r.Step(graph.MakeEdgeBatch(adds.Len(), adds.Triple), graph.MakeEdgeBatch(dels.Len(), dels.Triple))
			} else {
				r.Step(adds, dels)
			}
			var work int64
			for _, w := range r.WorkCounts() {
				work += w
			}
			out = append(out, orderStep{r.Results(), r.OutputDiffs(), work})
		}
		return out
	}
	for _, comp := range comps {
		for _, workers := range []int{1, 2, 3} {
			name := fmt.Sprintf("%s/w%d", comp.Name(), workers)
			byIndex, sorted := run(comp, workers, false), run(comp, workers, true)
			for v := range byIndex {
				a, b := byIndex[v], sorted[v]
				if !maps.Equal(a.results, b.results) {
					t.Fatalf("%s v%d: %d results by index, %d sorted, and they differ", name, v, len(a.results), len(b.results))
				}
				if a.diffs != b.diffs {
					t.Fatalf("%s v%d: %d output differences by index, %d sorted", name, v, a.diffs, b.diffs)
				}
				if workers == 1 && a.work != b.work {
					t.Fatalf("%s v%d: work %d by index, %d sorted", name, v, a.work, b.work)
				}
			}
		}
	}
}
