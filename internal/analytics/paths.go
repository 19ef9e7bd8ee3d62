package analytics

import (
	"graphsurge/internal/dataflow"
)

// roots is what the dataflow of a bfs, sssp or mpsp reads its roots from as
// it steps: the sources, and mpsp's pairs. The Instance owns it; Build binds
// it and Runner.Reset rebinds it, so one dataflow serves bfs(1) and, once
// reset, bfs(2).
type roots struct {
	srcs  []uint64 // the source, or mpsp's sources in pair order
	pairs []Pair   // mpsp's pairs; empty for bfs and sssp
}

// bind points r at comp's roots, reusing r's slices. A computation of
// another kind leaves r as it is.
func (r *roots) bind(comp Computation) {
	switch c := comp.(type) {
	case BFS:
		r.srcs, r.pairs = append(r.srcs[:0], c.Source), r.pairs[:0]
	case SSSP:
		r.srcs, r.pairs = append(r.srcs[:0], c.Source), r.pairs[:0]
	case MPSP:
		r.srcs, r.pairs = r.srcs[:0], append(r.pairs[:0], c.Pairs...)
		for _, p := range c.Pairs {
			r.srcs = append(r.srcs, p.Src)
		}
	}
}

// bind returns the builder's roots, bound to comp's.
func (b *Builder) bind(comp Computation) *roots {
	if b.roots == nil {
		b.roots = &roots{}
	}
	b.roots.bind(comp)
	return b.roots
}

// BFS computes directed hop distances from a source vertex; unreachable
// vertices have no output.
type BFS struct {
	Source uint64
}

// Name implements Computation.
func (BFS) Name() string { return "bfs" }

// Build implements Computation.
func (c BFS) Build(b *Builder) {
	b.Output(shortestPaths(b, b.bind(c), false))
}

// SSSP computes single-source shortest path distances with the Bellman-Ford
// fixpoint of the paper's Figure 2: vertices iteratively exchange distance
// messages (JoinMsg) and keep the minimum (UnionMin), both fused into one
// dataflow.JoinMin that stores no message. Edge weights must be
// non-negative.
type SSSP struct {
	Source uint64
}

// Name implements Computation.
func (SSSP) Name() string { return "bellman-ford" }

// Build implements Computation.
func (c SSSP) Build(b *Builder) {
	b.Output(shortestPaths(b, b.bind(c), true))
}

func shortestPaths(b *Builder, r *roots, weighted bool) *dataflow.Collection[VertexValue] {
	edges := edgesBySrc(b.Edges())
	roots := dataflow.Map(b.nodesAmong(r), func(v uint64) dataflow.KV[uint64, int64] {
		return dataflow.KV[uint64, int64]{K: v, V: 0}
	})
	step := func(d int64, _ dstW) int64 { return d + 1 }
	if weighted {
		step = func(d int64, e dstW) int64 { return d + e.W }
	}
	relax := dataflow.Relax[uint64, uint64, int64, dstW]{Vertex: vertex, At: at, Dst: dstW.dst, Step: step}
	dists := dataflow.Iterate(roots, func(x *dataflow.Collection[dataflow.KV[uint64, int64]]) *dataflow.Collection[dataflow.KV[uint64, int64]] {
		// JoinMsg and UnionMin, fused: each vertex with a distance proposes
		// d + c(u,v) to its out-neighbors, and each keeps the minimum.
		return dataflow.JoinMin(x, edges, roots, relax)
	})
	return dataflow.Map(dists, func(kv dataflow.KV[uint64, int64]) VertexValue {
		return VertexValue{V: kv.K, Val: kv.V}
	})
}

// Pair is a source-destination query of an MPSP computation.
type Pair struct {
	Src uint64 `json:"src"`
	Dst uint64 `json:"dst"`
}

// MPSP computes multiple-pair shortest paths: the weighted distance of each
// (src, dst) pair, propagating per-pair distance labels simultaneously in one
// dataflow. The output vertex ID encodes the pair index in the top byte (see
// MPSPVertex); the value is the pair's distance.
type MPSP struct {
	Pairs []Pair
}

// MPSPVertex encodes a pair index and destination vertex into an output
// vertex ID.
func MPSPVertex(pair int, dst uint64) uint64 { return uint64(pair)<<56 | dst }

// Name implements Computation.
func (MPSP) Name() string { return "mpsp" }

// nodeTag keys per-pair distance labels.
type nodeTag struct {
	Node uint64
	Tag  uint8
}

// Build implements Computation.
func (c MPSP) Build(b *Builder) {
	edges := edgesBySrc(b.Edges())
	r := b.bind(c)
	roots := dataflow.FlatMap(b.nodesAmong(r), func(v uint64, emit func(dataflow.KV[nodeTag, int64])) {
		for i, p := range r.pairs {
			if v == p.Src {
				emit(dataflow.KV[nodeTag, int64]{K: nodeTag{Node: v, Tag: uint8(i)}, V: 0})
			}
		}
	})
	relax := dataflow.Relax[nodeTag, uint64, int64, dstW]{
		Vertex: func(k nodeTag) uint64 { return k.Node },
		At:     func(k nodeTag, n uint64) nodeTag { return nodeTag{Node: n, Tag: k.Tag} },
		Dst:    dstW.dst,
		Step:   func(d int64, e dstW) int64 { return d + e.W },
	}
	dists := dataflow.Iterate(roots, func(x *dataflow.Collection[dataflow.KV[nodeTag, int64]]) *dataflow.Collection[dataflow.KV[nodeTag, int64]] {
		return dataflow.JoinMin(x, edges, roots, relax)
	})
	out := dataflow.FlatMap(dists, func(kv dataflow.KV[nodeTag, int64], emit func(VertexValue)) {
		if int(kv.K.Tag) < len(r.pairs) && r.pairs[kv.K.Tag].Dst == kv.K.Node {
			emit(VertexValue{V: MPSPVertex(int(kv.K.Tag), kv.K.Node), Val: kv.V})
		}
	})
	b.Output(out)
}
