package core

import "graphsurge/internal/graph"

// edgeBatcher returns a run's single conversion point from edge-index lists
// to columnar batches, resolving each index against the graph's weight
// column wc. The in-process executor, the adaptive planner and the cluster
// sharder all materialize through it, so a given edge set becomes the same
// sorted columns no matter which path builds it — the property the
// shard-vs-local equivalence tests pin — and a built batch is shared by
// reference wherever that edge set is used again.
func edgeBatcher(g *graph.Graph, wc int) func(idxs []uint32) *graph.EdgeBatch {
	return func(idxs []uint32) *graph.EdgeBatch {
		return graph.MakeEdgeBatch(len(idxs), func(i int) graph.Triple {
			return g.Triple(int(idxs[i]), wc)
		})
	}
}
