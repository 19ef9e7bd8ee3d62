package core

import (
	"time"

	"graphsurge/internal/graph"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// staticPlan maps a non-adaptive execution mode to its fully precomputable
// plan: diff-only is one segment spanning the collection, scratch is one
// single-view segment per view (embarrassingly parallel). Adaptive plans are
// built online by the planner as the optimizer's models mature; see
// runAdaptive.
func staticPlan(mode ExecMode, k int) splitting.Plan {
	if mode == Scratch {
		return splitting.PlanScratch(k)
	}
	return splitting.PlanDiffOnly(k)
}

// seed builds the opening edge set of a segment starting at view t — the
// view's edge indices, one walk of its EBM column, by reference over the
// graph's columns — and returns it with the time the build took, which joins
// the segment's setup cost. The list is appended to spare[:0], so a spare
// list's array is reused (nil takes a new one). It reads only the
// collection, so the dispatch builder and the adaptive planner call it for
// any view in any order, concurrently.
func (cr *collectionRun) seed(t int, spare []uint32) (*graph.EdgeRefs, time.Duration) {
	start := time.Now()
	idx := cr.col.EBM.Cols[cr.col.Order[t]].AppendAndNot(spare[:0], nil)
	return &graph.EdgeRefs{G: cr.col.Graph, W: cr.wc, Idx: idx}, time.Since(start)
}

// diffSizes lists every view's difference-set size, the cost models' input.
func diffSizes(stream *view.DiffStream) []int {
	diffs := make([]int, stream.NumViews())
	for t := range diffs {
		diffs[t] = stream.DiffSize(t)
	}
	return diffs
}

// fifoOrder is the identity dispatch permutation: collection order.
func fifoOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
