package analytics

import (
	"time"

	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
)

// SCC computes strongly connected components with the doubly-iterative
// coloring algorithm (Orzan) the paper uses: repeatedly (1) propagate the
// maximum vertex ID forward along edges to a fixpoint, coloring every vertex
// with the largest vertex that reaches it; (2) from each color root (a
// vertex whose color is its own ID), collect the vertices of the same color
// that reach the root by walking edges backwards — exactly the root's SCC;
// (3) remove the confirmed SCCs and repeat on the remainder.
//
// The engine supports one iteration dimension per dataflow, so the outer
// loop is *staged*: each phase is its own differential dataflow, fed the
// settled per-version output of the previous phase (the alive vertex set).
// This is the engineering substitution for Differential Dataflow's nested
// iterative scopes described in DESIGN.md: every phase remains fully
// incremental across view versions, and phases never observe each other's
// transient fixpoint states.
//
// The output value of a vertex is its SCC's coloring ID (the maximum vertex
// ID in the component). Vertices still unassigned after Phases phases (very
// long chains of SCCs) are reported by RemainingCount; raise Phases if it is
// ever nonzero.
type SCC struct {
	// Phases is the number of staged outer iterations; 0 means the default
	// of 10.
	Phases int
}

// Name implements Computation and Program.
func (*SCC) Name() string { return "scc" }

// Build implements Computation for interface completeness; SCC always runs
// through its staged Runner.
func (c *SCC) Build(b *Builder) {
	panic("analytics: SCC must run through NewRunner, not a single Instance")
}

// NewRunner implements Program.
func (c *SCC) NewRunner(workers int) (Runner, error) {
	phases := c.Phases
	if phases == 0 {
		phases = 10
	}
	r := &sccRunner{
		stages:  make([]*sccStage, phases),
		nodeDeg: make(map[uint64]int64),
		alive:   make([]map[uint64]bool, phases+1),
		done:    make([]map[uint64]uint64, phases),
	}
	for p := 0; p < phases; p++ {
		r.stages[p] = newSCCStage(workers)
		r.alive[p] = make(map[uint64]bool)
		r.done[p] = make(map[uint64]uint64)
	}
	r.alive[phases] = make(map[uint64]bool)
	return r, nil
}

// sccMatch pairs a candidate backward-propagated color with the vertex's
// actual color.
type sccMatch struct {
	Node   uint64
	Cand   uint64
	Actual uint64
}

// sccStage is one phase's dataflow: inputs are the view's edges and the
// phase's alive vertex set; output is the set of (vertex, color) assignments
// confirmed in this phase.
type sccStage struct {
	scope   *dataflow.Scope
	edgeIn  *dataflow.Input[graph.Triple]
	aliveIn *dataflow.Input[uint64]
	done    *dataflow.Capture[dataflow.KV[uint64, uint64]]
}

func newSCCStage(workers int) *sccStage {
	s := dataflow.NewScope(workers)
	edgeIn, edgesT := dataflow.NewInput[graph.Triple](s)
	aliveIn, aliveCol := dataflow.NewInput[uint64](s)

	alive := dataflow.Map(aliveCol, func(v uint64) dataflow.KV[uint64, struct{}] {
		return dataflow.KV[uint64, struct{}]{K: v}
	})
	allEdges := dataflow.Map(edgesT, func(t graph.Triple) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: t.Src, V: t.Dst}
	})
	// Keep only edges with both endpoints alive.
	byDst := dataflow.JoinMap(allEdges, alive, func(src uint64, dst uint64, _ struct{}) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: dst, V: src}
	})
	edges := dataflow.JoinMap(byDst, alive, func(dst uint64, src uint64, _ struct{}) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: src, V: dst}
	})
	// Restriction may produce duplicate (src,dst) records for parallel
	// edges; that only multiplies message multiplicities, which max/min
	// reduces ignore.

	seeds := dataflow.Map(alive, func(kv dataflow.KV[uint64, struct{}]) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: kv.K, V: kv.K}
	})
	// Forward fixpoint: color(v) = max(v, colors of in-neighbors).
	colors := dataflow.Iterate(seeds, func(x *dataflow.Collection[dataflow.KV[uint64, uint64]]) *dataflow.Collection[dataflow.KV[uint64, uint64]] {
		msgs := dataflow.JoinMap(x, edges, func(_ uint64, color uint64, dst uint64) dataflow.KV[uint64, uint64] {
			return dataflow.KV[uint64, uint64]{K: dst, V: color}
		})
		return dataflow.ReduceMax(dataflow.Concat(msgs, seeds))
	})

	roots := dataflow.Filter(colors, func(kv dataflow.KV[uint64, uint64]) bool { return kv.K == kv.V })
	rev := dataflow.Map(edges, func(kv dataflow.KV[uint64, uint64]) dataflow.KV[uint64, uint64] {
		return dataflow.KV[uint64, uint64]{K: kv.V, V: kv.K}
	})

	// Backward fixpoint within the color class: done(v) iff v reaches its
	// color root through same-colored vertices.
	done := dataflow.Iterate(roots, func(x *dataflow.Collection[dataflow.KV[uint64, uint64]]) *dataflow.Collection[dataflow.KV[uint64, uint64]] {
		msgs := dataflow.JoinMap(x, rev, func(_ uint64, color uint64, pred uint64) dataflow.KV[uint64, uint64] {
			return dataflow.KV[uint64, uint64]{K: pred, V: color}
		})
		matched := dataflow.JoinMap(msgs, colors, func(n uint64, cand uint64, actual uint64) sccMatch {
			return sccMatch{Node: n, Cand: cand, Actual: actual}
		})
		confirmed := dataflow.FlatMap(matched, func(m sccMatch, emit func(dataflow.KV[uint64, uint64])) {
			if m.Cand == m.Actual {
				emit(dataflow.KV[uint64, uint64]{K: m.Node, V: m.Cand})
			}
		})
		return dataflow.ReduceMin(dataflow.Concat(confirmed, roots))
	})

	return &sccStage{
		scope:   s,
		edgeIn:  edgeIn,
		aliveIn: aliveIn,
		done:    dataflow.NewCapture(done),
	}
}

// sccRunner drives the staged phases and maintains the alive sets between
// them.
type sccRunner struct {
	stages []*sccStage
	next   uint32

	nodeDeg map[uint64]int64    // edge-incidence count per vertex
	alive   []map[uint64]bool   // alive[p] is phase p's input vertex set
	done    []map[uint64]uint64 // done[p] is phase p's confirmed assignment

	// outputDiffs[v] is the merged output difference count per version.
	outputDiffs map[uint32]int
}

func (r *sccRunner) Step(adds, dels []graph.Triple) time.Duration {
	return r.step(len(adds), func(i int) graph.Triple { return adds[i] },
		len(dels), func(i int) graph.Triple { return dels[i] })
}

// StepBatch implements Runner over columnar batches.
func (r *sccRunner) StepBatch(adds, dels *graph.EdgeBatch) time.Duration {
	return r.step(adds.Len(), adds.Triple, dels.Len(), dels.Triple)
}

func (r *sccRunner) step(na int, addAt func(int) graph.Triple, nd int, delAt func(int) graph.Triple) time.Duration {
	start := time.Now()
	v := r.next
	r.next++

	edgeUps := edgeUpdates(na, addAt, delAt)
	var aliveDiff []dataflow.Update[uint64]
	bump := func(n uint64, by int64) {
		old := r.nodeDeg[n]
		nw := old + by
		if nw == 0 {
			delete(r.nodeDeg, n)
		} else {
			r.nodeDeg[n] = nw
		}
		if old == 0 && nw > 0 {
			aliveDiff = append(aliveDiff, dataflow.Update[uint64]{Rec: n, D: 1})
			r.alive[0][n] = true
		} else if old > 0 && nw == 0 {
			aliveDiff = append(aliveDiff, dataflow.Update[uint64]{Rec: n, D: -1})
			delete(r.alive[0], n)
		}
	}
	for i := 0; i < na; i++ {
		t := addAt(i)
		bump(t.Src, 1)
		bump(t.Dst, 1)
	}
	for i := 0; i < nd; i++ {
		t := delAt(i)
		bump(t.Src, -1)
		bump(t.Dst, -1)
	}

	merged := make(map[VertexValue]int64)
	for p, st := range r.stages {
		st.edgeIn.Send(v, na+nd, edgeUps)
		st.aliveIn.SendAt(v, aliveDiff)
		st.scope.Drain()
		st.scope.Compact(v)

		// Settle this phase's output and derive the next phase's alive set
		// incrementally from the two difference sets.
		doneDiff := st.done.VersionDiff(v)
		candidates := make(map[uint64]struct{}, len(doneDiff)+len(aliveDiff))
		for kv, d := range doneDiff {
			merged[VertexValue{V: kv.K, Val: int64(kv.V)}] += d
			candidates[kv.K] = struct{}{}
			if d > 0 {
				r.done[p][kv.K] = kv.V
			} else if cur, ok := r.done[p][kv.K]; ok && cur == kv.V {
				// Only a retraction of the current color removes the entry;
				// a color change arrives as {+new, -old} in map order.
				delete(r.done[p], kv.K)
			}
		}
		for _, u := range aliveDiff {
			candidates[u.Rec] = struct{}{}
		}
		aliveP, aliveNext := r.alive[p], r.alive[p+1]
		var nextDiff []dataflow.Update[uint64]
		for n := range candidates {
			_, isDone := r.done[p][n]
			newMember := aliveP[n] && !isDone
			if newMember && !aliveNext[n] {
				aliveNext[n] = true
				nextDiff = append(nextDiff, dataflow.Update[uint64]{Rec: n, D: 1})
			} else if !newMember && aliveNext[n] {
				delete(aliveNext, n)
				nextDiff = append(nextDiff, dataflow.Update[uint64]{Rec: n, D: -1})
			}
		}
		aliveDiff = nextDiff
	}
	if r.outputDiffs == nil {
		r.outputDiffs = make(map[uint32]int)
	}
	n := 0
	for _, d := range merged {
		if d != 0 {
			n++
		}
	}
	r.outputDiffs[v] = n
	return time.Since(start)
}

// Reset implements Resettable: every stage's dataflow resets in place (each
// scope's version cursor rewinds with it) and the runner's
// inter-stage bookkeeping — degree counts, alive sets, confirmed
// assignments, merged output-diff counts — is dropped for fresh maps. The
// pool can therefore recycle staged SCC runners exactly like
// single-dataflow instances, instead of rebuilding one dataflow per phase.
func (r *sccRunner) Reset() error {
	for _, st := range r.stages {
		st.scope.ResetState()
	}
	r.nodeDeg = make(map[uint64]int64)
	for p := range r.alive {
		r.alive[p] = make(map[uint64]bool)
	}
	for p := range r.done {
		r.done[p] = make(map[uint64]uint64)
	}
	r.outputDiffs = nil
	r.next = 0
	return nil
}

func (r *sccRunner) Version() (uint32, bool) {
	if r.next == 0 {
		return 0, false
	}
	return r.next - 1, true
}

func (r *sccRunner) OutputDiffs(v uint32) int { return r.outputDiffs[v] }

func (r *sccRunner) Results() map[VertexValue]int64 {
	out := make(map[VertexValue]int64)
	for _, d := range r.done {
		for n, color := range d {
			out[VertexValue{V: n, Val: int64(color)}] = 1
		}
	}
	return out
}

func (r *sccRunner) DropOutputsBefore(v uint32) {
	for _, st := range r.stages {
		st.done.Drop(v)
	}
	for ver := range r.outputDiffs {
		if ver < v {
			delete(r.outputDiffs, ver)
		}
	}
}

// RemainingCount returns the number of vertices not assigned to any SCC
// after the last phase; nonzero means Phases is too small for this graph.
func (r *sccRunner) RemainingCount() int { return len(r.alive[len(r.stages)]) }

func (r *sccRunner) WorkCounts() []int64 {
	var out []int64
	for _, st := range r.stages {
		wc := st.scope.WorkCounts()
		if out == nil {
			out = make([]int64, len(wc))
		}
		for i, c := range wc {
			out[i] += c
		}
	}
	return out
}

func (r *sccRunner) IterCapHit() bool {
	for _, st := range r.stages {
		if st.scope.IterCapHit.Load() {
			return true
		}
	}
	return false
}
