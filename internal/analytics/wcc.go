package analytics

import "graphsurge/internal/dataflow"

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
	seeds := dataflow.Map(b.nodes(), func(v uint64) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: v, V: v}
	})
	relax := dataflow.Relax[uint64, uint64, uint64, uint64]{Vertex: vertex, At: at, Dst: vertex, Step: keep[uint64, uint64]}
	labels := dataflow.Iterate(seeds, func(x *dataflow.Collection[dataflow.KV[uint64, uint64]]) *dataflow.Collection[dataflow.KV[uint64, uint64]] {
		return dataflow.JoinMin(x, adj, seeds, relax)
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
	b.Output(dataflow.Map(b.outDegrees(), func(kv degree) VertexValue {
		return VertexValue{V: kv.K, Val: kv.V}
	}))
}
