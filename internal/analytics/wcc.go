package analytics

import (
	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
)

// WCC computes weakly connected components by undirected minimum-label
// propagation: every vertex starts labeled with its own ID and iteratively
// adopts the minimum label among itself and its neighbors, to fixpoint. The
// output value of a vertex is its component's minimum vertex ID.
type WCC struct{}

// Name implements Computation.
func (WCC) Name() string { return "wcc" }

// Build implements Computation.
func (WCC) Build(b *Builder) {
	adj := edgesSymmetric(b.Edges())
	seeds := dataflow.Map(nodes(b.Edges()), func(v uint64) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: v, V: v}
	})
	labels := dataflow.Iterate(seeds, func(x *dataflow.Collection[dataflow.KV[uint64, uint64]]) *dataflow.Collection[dataflow.KV[uint64, uint64]] {
		msgs := dataflow.JoinMapTotal(x, adj, func(_ uint64, label uint64, nbr uint64) dataflow.KV[uint64, uint64] {
			return dataflow.KV[uint64, uint64]{K: nbr, V: label}
		})
		return dataflow.ReduceMin(dataflow.Concat(msgs, seeds))
	})
	b.Output(dataflow.Map(labels, func(kv dataflow.KV[uint64, uint64]) VertexValue {
		return VertexValue{V: kv.K, Val: int64(kv.V)}
	}))
}

// Degree computes each vertex's out-degree — the paper's example of a
// non-iterative computation ("computing the max degree of a graph").
type Degree struct{}

// Name implements Computation.
func (Degree) Name() string { return "degree" }

// Build implements Computation.
func (Degree) Build(b *Builder) {
	bySrc := dataflow.Map(b.Edges(), func(t graph.Triple) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: t.Src, V: t.Dst}
	})
	counts := dataflow.CountTotal(bySrc)
	b.Output(dataflow.Map(counts, func(kv dataflow.KV[uint64, int64]) VertexValue {
		return VertexValue{V: kv.K, Val: kv.V}
	}))
}
