// Package analytics implements Graphsurge's analytics computation API and
// algorithm library. A Computation is the Go equivalent of the paper's
// GraphSurgeComputation trait (Listing 2): it wires an arbitrary differential
// dataflow whose input is the edge stream of a graph view and whose output is
// a per-vertex result stream. The same dataflow instance is fed one view of a
// collection at a time; Differential Dataflow semantics make the computation
// incremental across views automatically.
//
// The library ships the paper's five evaluation algorithms — weakly connected
// components, breadth-first search, single-source shortest paths
// (Bellman-Ford), PageRank, strongly connected components (the
// doubly-iterative coloring algorithm) and multiple-pair shortest paths —
// plus a non-iterative degree computation.
//
// Every algorithm but SCC is one dataflow run by an Instance. SCC's outer
// loop is staged by its own Runner: each phase is a trim dataflow, which sets
// aside the vertices on no cycle, and a coloring dataflow over what is left,
// each in its own scope, and the runner adds phases until every vertex is
// assigned (see SCC).
//
// A Runner keeps the answer at the last version and that version's output
// difference set, not their history, and resets in place so a Pool can
// recycle it.
package analytics

import (
	"fmt"
	"time"

	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
)

// VertexValue is the (vertex, result) output record of a computation, the
// paper's (VID, ResultValue) stream.
type VertexValue struct {
	V   uint64
	Val int64
}

// Builder exposes a computation's inputs and output registration during
// dataflow construction.
type Builder struct {
	scope  *dataflow.Scope
	edges  *dataflow.Collection[graph.Triple]
	output *dataflow.Capture[VertexValue]
}

// Scope returns the dataflow scope being built.
func (b *Builder) Scope() *dataflow.Scope { return b.scope }

// Edges returns the view's edge stream: (src, dst, weight) triples.
func (b *Builder) Edges() *dataflow.Collection[graph.Triple] { return b.edges }

// Output registers the computation's result stream. Must be called exactly
// once by Build.
func (b *Builder) Output(col *dataflow.Collection[VertexValue]) {
	if b.output != nil {
		panic("analytics: Output called twice")
	}
	b.output = dataflow.NewCapture(col)
}

// Computation is a graph analytics program over a view's edge stream.
type Computation interface {
	// Name identifies the computation in logs and results.
	Name() string
	// Build wires the computation's dataflow. It must call b.Output once.
	// The operator functions it wires (map/filter/reduce closures) must be
	// stateless and deterministic: runners are recycled across runs by
	// resetting operator state in place, which cannot see — and therefore
	// cannot clear — mutable state captured inside closures.
	Build(b *Builder)
}

// Runner executes a computation over the versions of a view collection. The
// standard Runner is Instance (one dataflow); built-ins with chained
// fixpoints (SCC) provide staged runners of several dataflows executed in
// sequence per version. A runner keeps the answer at the last version and
// that version's output difference set, not their history.
type Runner interface {
	// Step advances to the next version with the given edge changes (nil
	// batches are empty) and runs to quiescence, returning the elapsed time.
	Step(adds, dels *graph.EdgeBatch) time.Duration
	// OutputDiffs returns the output difference-set size of the last step.
	OutputDiffs() int
	// Results returns the accumulated per-vertex results at the last
	// version, in a map the caller owns.
	Results() map[VertexValue]int64
	// WorkCounts returns per-worker work counters (scaling proxy).
	WorkCounts() []int64
	// IterCapHit reports whether any fixpoint hit the iteration safety cap.
	IterCapHit() bool
	// Reset returns the runner to its just-built condition in place, ready
	// for a new from-scratch run at version 0 (see Pool).
	Reset() error
	// Park tells the runner it goes idle between steps: it lets go of the
	// exchange columns its dataflows keep from version to version
	// (dataflow.Scope.Park). It changes no result, and the next Step or
	// Reset proceeds as if it had not been called.
	Park()
}

// Program is implemented by computations that need a custom runner instead
// of a single dataflow instance.
type Program interface {
	Name() string
	NewRunner(workers int) (Runner, error)
}

// NewRunner builds the appropriate runner for a computation: a custom one if
// the computation implements Program, otherwise a single-dataflow Instance.
func NewRunner(comp Computation, workers int) (Runner, error) {
	if p, ok := comp.(Program); ok {
		return p.NewRunner(workers)
	}
	return NewInstance(comp, workers)
}

// Instance is one instantiated dataflow for a computation: a scope, its edge
// input, and the captured output. The executor feeds it one view (or view
// difference) per version.
type Instance struct {
	comp   Computation
	scope  *dataflow.Scope
	input  *dataflow.Input[graph.Triple]
	output *dataflow.Capture[VertexValue]
	next   uint32
}

// NewInstance builds a fresh dataflow for the computation.
func NewInstance(comp Computation, workers int) (*Instance, error) {
	s := dataflow.NewScope(workers)
	input, edges := dataflow.NewInput[graph.Triple](s)
	b := &Builder{scope: s, edges: edges}
	comp.Build(b)
	if b.output == nil {
		return nil, fmt.Errorf("analytics: computation %q did not register an output", comp.Name())
	}
	return &Instance{comp: comp, scope: s, input: input, output: b.output}, nil
}

// Step advances the instance by one version, applying the given edge
// additions and deletions, and runs the dataflow to quiescence. The input's
// batch is filled directly from the shared columns. It returns the elapsed
// wall-clock time (the per-view runtime the splitting optimizer observes).
func (inst *Instance) Step(adds, dels *graph.EdgeBatch) time.Duration {
	start := time.Now()
	v := inst.next
	inst.input.Send(v, adds.Len()+dels.Len(), edgeUpdates(adds, dels))
	inst.scope.Drain()
	inst.scope.Compact(v)
	inst.next++
	return time.Since(start)
}

// edgeUpdates is a view's difference set in the shape Input.Send reads: the
// additions (+1) followed by the deletions (−1).
func edgeUpdates(adds, dels *graph.EdgeBatch) func(int) (graph.Triple, dataflow.Diff) {
	na := adds.Len()
	return func(i int) (graph.Triple, dataflow.Diff) {
		if i < na {
			return adds.Triple(i), 1
		}
		return dels.Triple(i - na), -1
	}
}

// OutputDiffs returns the size of the output difference set of the last
// step.
func (inst *Instance) OutputDiffs() int { return inst.output.DiffCount() }

// Results returns the accumulated per-vertex results at the last version.
func (inst *Instance) Results() map[VertexValue]int64 { return inst.output.Result() }

// Reset returns the instance to its just-built condition in place: every
// operator's state, the captured answer, the input's version cursor, work
// counters and the iteration-cap flag are cleared, while the dataflow graph
// itself is reused. The instance then serves a new from-scratch run starting
// at version 0.
func (inst *Instance) Reset() error {
	inst.scope.ResetState()
	inst.next = 0
	return nil
}

// Park implements Runner.
func (inst *Instance) Park() { inst.scope.Park() }

// WorkCounts implements Runner.
func (inst *Instance) WorkCounts() []int64 { return inst.scope.WorkCounts() }

// IterCapHit implements Runner.
func (inst *Instance) IterCapHit() bool { return inst.scope.IterCapHit.Load() }

// Scope exposes the underlying scope (work counters, iteration caps).
func (inst *Instance) Scope() *dataflow.Scope { return inst.scope }

// Shared sub-dataflows used by several algorithms.

// nodes derives the set of vertices present in the edge stream.
func nodes(edges *dataflow.Collection[graph.Triple]) *dataflow.Collection[uint64] {
	return dataflow.DistinctTotal(dataflow.FlatMap(edges, func(t graph.Triple, emit func(uint64)) {
		emit(t.Src)
		emit(t.Dst)
	}))
}

// dstW is a (destination, weight) pair, the value of an edge keyed by
// source.
type dstW struct {
	Dst uint64
	W   int64
}

func (e dstW) dst() uint64 { return e.Dst }

// vertex, at and keep are the relaxations' parts for one label per vertex
// (see dataflow.Relax): a key is its vertex, and a label passes along an edge
// unchanged under keep.
func vertex(v uint64) uint64       { return v }
func at(_ uint64, n uint64) uint64 { return n }
func keep[V, E any](v V, _ E) V    { return v }

// edgesBySrc keys the edge stream by source vertex.
func edgesBySrc(edges *dataflow.Collection[graph.Triple]) *dataflow.Collection[dataflow.KV[uint64, dstW]] {
	return dataflow.Map(edges, func(t graph.Triple) dataflow.KV[uint64, dstW] {
		return dataflow.KV[uint64, dstW]{K: t.Src, V: dstW{Dst: t.Dst, W: t.W}}
	})
}

// edgesSymmetric keys each edge by both endpoints (undirected adjacency).
func edgesSymmetric(edges *dataflow.Collection[graph.Triple]) *dataflow.Collection[dataflow.KV[uint64, uint64]] {
	return dataflow.FlatMap(edges, func(t graph.Triple, emit func(dataflow.KV[uint64, uint64])) {
		emit(dataflow.KV[uint64, uint64]{K: t.Src, V: t.Dst})
		emit(dataflow.KV[uint64, uint64]{K: t.Dst, V: t.Src})
	})
}
