package analytics

import (
	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
)

// PRScale is the fixed-point scale of PageRank values: an output value of
// PRScale corresponds to a rank of 1.0. Integer fixed-point keeps the
// computation exactly consolidatable in the differential engine (floating
// point would make retractions inexact). The precision is deliberately
// moderate (2^-12): rank perturbations below one quantum truncate away,
// which bounds how far a small edge change cascades — the role float
// rounding plays in the original system — while still distinguishing ranks
// ~4000 apart in the graphs this reproduction targets.
const PRScale = 1 << 12

// PageRank runs a fixed number of unnormalized PageRank iterations:
// rank(v) = (1-d) + d·Σ_{u→v} rank(u)/deg(u), with damping d = 0.85.
//
// PageRank is the paper's canonical *unstable* computation: a single edge
// change at u alters deg(u) and therefore every message u sends, so its
// differential footprint between similar views is much larger than
// Bellman-Ford's — the effect behind Table 2 and the splitting optimizer.
// Vertices with no outgoing edges leak rank (the usual simplification in
// dataflow implementations).
type PageRank struct {
	// Iterations is the number of rank updates; 0 means the default of 10.
	Iterations uint32
}

// Name implements Computation.
func (PageRank) Name() string { return "pagerank" }

// Build implements Computation.
func (c PageRank) Build(b *Builder) {
	iters := c.Iterations
	if iters == 0 {
		iters = 10
	}
	const damping = 85 // percent

	edges := edgesBySrc(b.Edges())
	verts := nodes(b.Edges())
	degrees := dataflow.CountTotal(dataflow.Map(b.Edges(), func(t graph.Triple) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: t.Src, V: t.Dst}
	}))
	// Every vertex contributes a constant (1-d) base rank each iteration.
	base := dataflow.Map(verts, func(v uint64) dataflow.KV[uint64, int64] {
		return dataflow.KV[uint64, int64]{K: v, V: (100 - damping) * PRScale / 100}
	})
	initial := dataflow.Map(verts, func(v uint64) dataflow.KV[uint64, int64] {
		return dataflow.KV[uint64, int64]{K: v, V: PRScale}
	})

	ranks := dataflow.IterateN(initial, iters, func(x *dataflow.Collection[dataflow.KV[uint64, int64]]) *dataflow.Collection[dataflow.KV[uint64, int64]] {
		// Divide each vertex's damped rank by its out-degree...
		shares := dataflow.JoinMapTotal(x, degrees, func(v uint64, rank int64, deg int64) dataflow.KV[uint64, int64] {
			return dataflow.KV[uint64, int64]{K: v, V: rank * damping / 100 / deg}
		})
		// ...send the share along every out-edge...
		contribs := dataflow.JoinMapTotal(shares, edges, func(_ uint64, share int64, e dstW) dataflow.KV[uint64, int64] {
			return dataflow.KV[uint64, int64]{K: e.Dst, V: share}
		})
		// ...and accumulate with the base rank.
		return dataflow.ReduceSum(dataflow.Concat(base, contribs))
	})
	b.Output(dataflow.Map(ranks, func(kv dataflow.KV[uint64, int64]) VertexValue {
		return VertexValue{V: kv.K, Val: kv.V}
	}))
}
