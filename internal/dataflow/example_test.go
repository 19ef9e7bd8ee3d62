package dataflow_test

import (
	"fmt"
	"sort"

	"graphsurge/internal/dataflow"
)

// ExampleIterate computes single-source reachability differentially: after
// feeding a graph version, the fixpoint loop runs to convergence
// automatically; after feeding a change, only the affected deltas are
// reprocessed.
func ExampleIterate() {
	type edge struct{ Src, Dst uint32 }

	scope := dataflow.NewScope(1)
	edges, edgeCol := dataflow.NewInput[edge](scope)
	roots, rootCol := dataflow.NewInput[uint32](scope)

	keyed := dataflow.Map(edgeCol, func(e edge) dataflow.KV[uint32, uint32] {
		return dataflow.KV[uint32, uint32]{K: e.Src, V: e.Dst}
	})
	reached := dataflow.Iterate(rootCol, func(x *dataflow.Collection[uint32]) *dataflow.Collection[uint32] {
		asKeys := dataflow.Map(x, func(v uint32) dataflow.KV[uint32, struct{}] {
			return dataflow.KV[uint32, struct{}]{K: v}
		})
		next := dataflow.JoinMap(keyed, asKeys, func(_ uint32, dst uint32, _ struct{}) uint32 {
			return dst
		})
		return dataflow.Distinct(dataflow.Concat(next, rootCol))
	})
	out := dataflow.NewCapture(reached)

	report := func(v uint32) {
		var vs []int
		for r := range out.Result() {
			vs = append(vs, int(r))
		}
		sort.Ints(vs)
		fmt.Println(vs)
	}

	// Version 0: a chain 1 -> 2 -> 3 and an island 8 -> 9.
	roots.SendOne(0, 1, 1)
	edges.SendAt(0, []dataflow.Update[edge]{
		{Rec: edge{1, 2}, D: 1}, {Rec: edge{2, 3}, D: 1}, {Rec: edge{8, 9}, D: 1},
	})
	scope.Drain()
	report(0)

	// Version 1: connect the island, cut the chain.
	edges.SendAt(1, []dataflow.Update[edge]{
		{Rec: edge{3, 8}, D: 1}, {Rec: edge{1, 2}, D: -1},
	})
	scope.Drain()
	report(1)

	// Output:
	// [1 2 3]
	// [1]
}
