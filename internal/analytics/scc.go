package analytics

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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
// Each round first trims (McLendon et al.; Hong et al., SC'13): a fixpoint
// sets aside every alive vertex without both an out-edge and an in-edge
// among the alive. Such a vertex lies on no cycle, so it is its own SCC,
// colored with its own ID. Only the rest, the round's core, is colored, and
// only the edges inside the core reach the next round. On sparse graphs most
// vertices lie on no cycle, so the trim settles most of the answer.
//
// The engine supports one iteration dimension per dataflow, so the outer
// loop is *staged*: each phase is a trim and a coloring dataflow, each in its
// own scope and fed the settled per-version output of the one before. This
// is the engineering substitution for Differential Dataflow's nested
// iterative scopes described in DESIGN.md: every phase remains fully
// incremental across view versions, and phases never observe each other's
// transient fixpoint states.
//
// Phases are built as the graph needs them: a version that leaves vertices
// unassigned after the last phase appends another. A phase with a non-empty
// alive set settles at least one of them — the trim sets it aside, or it is
// in the SCC of the core's largest vertex, which that vertex's color always
// confirms — so every version ends with every vertex assigned.
//
// The output value of a vertex is its SCC's coloring ID (the maximum vertex
// ID in the component).
type SCC struct{}

// Name implements Computation and Program.
func (SCC) Name() string { return "scc" }

// Build implements Computation for interface completeness; SCC always runs
// through its staged Runner.
func (SCC) Build(b *Builder) {
	panic("analytics: SCC must run through NewRunner, not a single Instance")
}

// NewRunner implements Program.
func (SCC) NewRunner(workers int) (Runner, error) {
	return &sccRunner{workers: workers, answer: make(map[VertexValue]int64)}, nil
}

// sccEdge is an edge as (src, dst), or a (vertex, color) assignment;
// sccVertex is a member of a vertex set.
type (
	sccEdge   = dataflow.KV[uint64, uint64]
	sccVertex = dataflow.KV[uint64, struct{}]
)

// sccMatch pairs a candidate backward-propagated color with the vertex's
// actual color.
type sccMatch struct {
	Node   uint64
	Cand   uint64
	Actual uint64
}

// sccPhase is one outer round as two dataflows, each in its own scope (a
// loop fed by another loop's retractions needs one; see Iterate). The trim
// takes edges — a superset of those inside the alive set — and the phase's
// alive set, and captures the core and the edges inside it. The coloring
// takes those two and captures the (vertex, color) assignments it confirms.
type sccPhase struct {
	trim, color        *dataflow.Scope
	edgeIn, coreEdgeIn *dataflow.Input[sccEdge]
	aliveIn, coreIn    *dataflow.Input[uint64]
	core               *dataflow.Capture[uint64]
	coreEdges, done    *dataflow.Capture[sccEdge]
}

func newSCCPhase(workers int) *sccPhase {
	ph := &sccPhase{trim: dataflow.NewScope(workers), color: dataflow.NewScope(workers)}
	var edges *dataflow.Collection[sccEdge]
	var alive, core *dataflow.Collection[uint64]
	ph.edgeIn, edges = dataflow.NewInput[sccEdge](ph.trim)
	ph.aliveIn, alive = dataflow.NewInput[uint64](ph.trim)

	// core = the greatest fixpoint of x ↦ {v ∈ x with an out-edge and an
	// in-edge inside x}, from x = alive. The body keeps only edges inside
	// x ⊆ alive, so the edges need no restriction to the alive set first.
	var inside *dataflow.Collection[sccEdge]
	trimmed := dataflow.Iterate(dataflow.Map(alive, func(v uint64) sccVertex { return sccVertex{K: v} }),
		func(x *dataflow.Collection[sccVertex]) *dataflow.Collection[sccVertex] {
			fromX := dataflow.JoinMapTotal(x, edges, func(src uint64, _ struct{}, dst uint64) sccEdge {
				return sccEdge{K: dst, V: src}
			})
			inside = dataflow.JoinMap(fromX, x, func(dst uint64, src uint64, _ struct{}) sccEdge {
				return sccEdge{K: src, V: dst}
			})
			ends := dataflow.FlatMap(inside, func(e sccEdge, emit func(dataflow.KV[uint64, bool])) {
				emit(dataflow.KV[uint64, bool]{K: e.K, V: true})  // an out-edge of e.K
				emit(dataflow.KV[uint64, bool]{K: e.V, V: false}) // an in-edge of e.V
			})
			return dataflow.Reduce(ends, "trim", func(_ uint64, vals []dataflow.VD[bool], emit func(struct{})) {
				var out, in bool
				for _, vd := range vals {
					out, in = out || vd.D > 0 && vd.V, in || vd.D > 0 && !vd.V
				}
				if out && in {
					emit(struct{}{})
				}
			})
		})
	ph.core = dataflow.NewCapture(dataflow.Map(trimmed, func(kv sccVertex) uint64 { return kv.K }))
	// Consolidated over iterations, the edges inside x are those inside the
	// fixpoint.
	ph.coreEdges = dataflow.NewCapture(inside)

	ph.coreEdgeIn, edges = dataflow.NewInput[sccEdge](ph.color)
	ph.coreIn, core = dataflow.NewInput[uint64](ph.color)
	// Parallel edges arrive with multiplicity above one; that only
	// multiplies message multiplicities, which max/min reduces ignore.
	seeds := dataflow.Map(core, func(v uint64) sccEdge { return sccEdge{K: v, V: v} })
	// Forward fixpoint: color(v) = max(v, colors of in-neighbors).
	relax := dataflow.Relax[uint64, uint64, uint64, uint64]{Vertex: vertex, At: at, Dst: vertex, Step: keep[uint64, uint64]}
	colors := dataflow.Iterate(seeds, func(x *dataflow.Collection[sccEdge]) *dataflow.Collection[sccEdge] {
		return dataflow.JoinMax(x, edges, seeds, relax)
	})

	roots := dataflow.Filter(colors, func(kv sccEdge) bool { return kv.K == kv.V })
	rev := dataflow.Map(edges, func(kv sccEdge) sccEdge { return sccEdge{K: kv.V, V: kv.K} })

	// Backward fixpoint within the color class: done(v) iff v reaches its
	// color root through same-colored vertices.
	done := dataflow.Iterate(roots, func(x *dataflow.Collection[sccEdge]) *dataflow.Collection[sccEdge] {
		msgs := dataflow.JoinMapTotal(x, rev, func(_ uint64, color uint64, pred uint64) sccEdge {
			return sccEdge{K: pred, V: color}
		})
		matched := dataflow.JoinMap(msgs, colors, func(n uint64, cand uint64, actual uint64) sccMatch {
			return sccMatch{Node: n, Cand: cand, Actual: actual}
		})
		confirmed := dataflow.FlatMap(matched, func(m sccMatch, emit func(sccEdge)) {
			if m.Cand == m.Actual {
				emit(sccEdge{K: m.Node, V: m.Cand})
			}
		})
		return dataflow.ReduceMin(dataflow.Concat(confirmed, roots))
	})
	ph.done = dataflow.NewCapture(done)
	return ph
}

// sccRunner drives the staged phases and carries each phase's output into
// the next.
type sccRunner struct {
	workers int
	phases  []*sccPhase // built on demand and kept across Reset
	next    uint32

	nodeDeg     counts                // edge-incidence count per vertex
	answer      map[VertexValue]int64 // the accumulated output
	outputDiffs int                   // the last step's output difference count

	// A step's scratch, recycled from step to step and across Reset. Each
	// holds one phase's or one step's differences, never a whole answer,
	// so no step pays for a larger view that ran before it.
	alive, core []dataflow.Update[uint64]      // a phase's alive set and core differences
	edges, done []dataflow.Update[sccEdge]     // its core edges' and confirmed colors' differences
	merged      []dataflow.Update[VertexValue] // the step's output differences
}

// updates lists a captured result as input updates.
func updates[R comparable](diff map[R]dataflow.Diff) []dataflow.Update[R] {
	ups := make([]dataflow.Update[R], 0, len(diff))
	for rec, d := range diff {
		ups = append(ups, dataflow.Update[R]{Rec: rec, D: d})
	}
	return ups
}

// consolidate sums the differences of equal records, sorted by compare, and
// drops those that cancel, in place.
func consolidate[R comparable](ups []dataflow.Update[R], compare func(a, b R) int) []dataflow.Update[R] {
	slices.SortFunc(ups, func(a, b dataflow.Update[R]) int { return compare(a.Rec, b.Rec) })
	n := 0
	for i := 0; i < len(ups); {
		u := ups[i]
		for i++; i < len(ups) && ups[i].Rec == u.Rec; i++ {
			u.D += ups[i].D
		}
		if u.D != 0 {
			ups[n], n = u, n+1
		}
	}
	return ups[:n]
}

// output adds d of vertex v colored c to the step's output differences.
func (r *sccRunner) output(v, c uint64, d dataflow.Diff) {
	r.merged = append(r.merged, dataflow.Update[VertexValue]{Rec: VertexValue{V: v, Val: int64(c)}, D: d})
}

// Step implements Runner.
func (r *sccRunner) Step(adds, dels graph.Edges) time.Duration {
	start := time.Now()
	v := r.next
	r.next++

	na, nd := size(adds), size(dels)
	edgeUps := edgeUpdates(adds, dels)
	r.merged = r.merged[:0]
	r.nodeDeg.begin()
	for i := 0; i < na+nd; i++ {
		r.nodeDeg.add(edgeUps(i))
	}
	r.alive = r.nodeDeg.vertexDiffs(r.alive[:0])

	for p := 0; p < len(r.phases) || len(r.alive) > 0; p++ {
		if p == len(r.phases) {
			r.phases = append(r.phases, newSCCPhase(r.workers))
			if p > 0 {
				// A new phase has missed the previous phase's core edges
				// of earlier versions: it starts from all of them, not
				// from this version's difference. (Its alive set was
				// empty until now, so r.alive is already all of it.)
				r.edges = updates(r.phases[p-1].coreEdges.Result())
			}
		}
		ph := r.phases[p]
		// Trim. Phase 0 reads the view's edges; a later phase the edges
		// inside the previous core, so a phase with nothing alive gets none.
		if p == 0 {
			ph.edgeIn.Send(v, na+nd, func(i int) (sccEdge, dataflow.Diff) {
				t, d := edgeUps(i)
				return sccEdge{K: t.Src, V: t.Dst}, d
			})
		} else {
			ph.edgeIn.SendAt(v, r.edges)
		}
		ph.aliveIn.SendAt(v, r.alive)
		ph.trim.Drain()
		ph.trim.Compact(v)
		r.core = ph.core.AppendDiff(r.core[:0])
		r.edges = ph.coreEdges.AppendDiff(r.edges[:0])

		// A vertex alive but outside the core is its own SCC. The core is a
		// subset of the alive set, so the singles change by alive − core.
		for _, u := range r.alive {
			r.output(u.Rec, u.Rec, u.D)
		}
		for _, u := range r.core {
			r.output(u.Rec, u.Rec, -u.D)
		}

		// Coloring, of the core along the edges inside it.
		ph.coreEdgeIn.SendAt(v, r.edges)
		ph.coreIn.SendAt(v, r.core)
		ph.color.Drain()
		ph.color.Compact(v)

		// The confirmed vertices are a subset of the core, and the next
		// phase's alive set is core − done. A color change arrives as
		// {+new, −old} and cancels in both.
		r.done = ph.done.AppendDiff(r.done[:0])
		r.alive = append(r.alive[:0], r.core...)
		for _, u := range r.done {
			r.output(u.Rec.K, u.Rec.V, u.D)
			r.alive = append(r.alive, dataflow.Update[uint64]{Rec: u.Rec.K, D: -u.D})
		}
		r.alive = consolidate(r.alive, cmp.Compare[uint64])
	}
	r.merged = consolidate(r.merged, func(a, b VertexValue) int {
		return cmp.Or(cmp.Compare(a.V, b.V), cmp.Compare(a.Val, b.Val))
	})
	for _, u := range r.merged {
		if r.answer[u.Rec] += u.D; r.answer[u.Rec] == 0 {
			delete(r.answer, u.Rec)
		}
	}
	r.outputDiffs = len(r.merged)
	return time.Since(start)
}

// scopes lists every phase's trim and coloring scope.
func (r *sccRunner) scopes() []*dataflow.Scope {
	out := make([]*dataflow.Scope, 0, 2*len(r.phases))
	for _, ph := range r.phases {
		out = append(out, ph.trim, ph.color)
	}
	return out
}

// Reset implements Runner: every phase built so far keeps its two dataflows
// and resets them in place (each scope's version cursor rewinds with it),
// and the runner's bookkeeping — degree counts, the accumulated answer, the
// output-diff count — is cleared in place. The pool therefore recycles
// staged SCC runners exactly like single-dataflow instances, instead of
// rebuilding two dataflows per phase, and a rerun fills the maps and step
// scratch the last run grew. SCC has no parameters, so comp must be SCC.
func (r *sccRunner) Reset(comp Computation) error {
	if !sameShape(SCC{}, comp) {
		return fmt.Errorf("analytics: an scc runner cannot serve %s", comp.Name())
	}
	for _, s := range r.scopes() {
		s.ResetState()
	}
	r.nodeDeg.reset()
	clear(r.answer)
	r.outputDiffs, r.next = 0, 0
	return nil
}

// Park implements Runner: it parks every phase's trim and coloring scope.
func (r *sccRunner) Park() {
	for _, s := range r.scopes() {
		s.Park()
	}
}

func (r *sccRunner) OutputDiffs() int { return r.outputDiffs }

func (r *sccRunner) Results() map[VertexValue]int64 { return maps.Clone(r.answer) }

func (r *sccRunner) WorkCounts() []int64 {
	var out []int64
	for _, s := range r.scopes() {
		wc := s.WorkCounts()
		if out == nil {
			out = make([]int64, len(wc))
		}
		for i, c := range wc {
			out[i] += c
		}
	}
	return out
}

// IterCapHit reports a fixpoint in any phase that hit the iteration cap.
func (r *sccRunner) IterCapHit() bool {
	for _, s := range r.scopes() {
		if s.IterCapHit.Load() {
			return true
		}
	}
	return false
}
