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
	"reflect"
	"slices"
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
	roots  *roots // bound by a rooted built-in's Build (bind)
	feed   *feed  // its inputs made by nodes and outDegrees
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
	// cannot clear — mutable state captured inside closures. The one state
	// they may read is the bound roots of the built-in bfs, sssp and mpsp,
	// which Runner.Reset rebinds: their closures read the roots when the
	// dataflow steps, so they are not captured here.
	Build(b *Builder)
}

// Runner executes a computation over the versions of a view collection. The
// standard Runner is Instance (one dataflow); built-ins with chained
// fixpoints (SCC) provide staged runners of several dataflows executed in
// sequence per version. A runner keeps the answer at the last version and
// that version's output difference set, not their history.
type Runner interface {
	// Step advances to the next version with the given edge changes (a nil
	// side is empty) and runs to quiescence, returning the elapsed time. The
	// order of each side's edges does not matter: the dataflow consolidates
	// its input.
	Step(adds, dels graph.Edges) time.Duration
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
	// for a new from-scratch run of comp at version 0 (see Pool), and binds
	// comp's roots. It fails, changing nothing, when comp has another Shape
	// than the computation the runner was built for.
	Reset(comp Computation) error
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
	roots  *roots // what the dataflow reads its roots from; nil if it has none
	next   uint32
	feed   *feed // the vertex and degree inputs; nil if Build asked for neither
}

// NewInstance builds a fresh dataflow for the computation.
func NewInstance(comp Computation, workers int) (*Instance, error) {
	s := dataflow.NewScope(workers)
	input, edges := dataflow.NewInput[graph.Triple](s)
	b := &Builder{scope: s, edges: edges, feed: &feed{}}
	comp.Build(b)
	if b.output == nil {
		return nil, fmt.Errorf("analytics: computation %q did not register an output", comp.Name())
	}
	inst := &Instance{comp: comp, scope: s, input: input, output: b.output, roots: b.roots}
	if b.feed.verts != nil || b.feed.degs != nil {
		inst.feed = b.feed
	}
	return inst, nil
}

// Step advances the instance by one version, applying the given edge
// additions and deletions, and runs the dataflow to quiescence. The input
// reads each edge straight from adds and dels, which are not copied; when
// Build asked for the vertex set or the out-degrees, the same pass counts
// the edge's endpoints, and the vertices and degrees the step changed enter
// through their own inputs at the same version. It returns the elapsed
// wall-clock time (the per-view runtime the splitting optimizer observes).
func (inst *Instance) Step(adds, dels graph.Edges) time.Duration {
	start := time.Now()
	v := inst.next
	at := edgeUpdates(adds, dels)
	if f := inst.feed; f != nil {
		f.begin()
		read := at
		at = func(i int) (graph.Triple, dataflow.Diff) {
			t, d := read(i)
			f.add(t, d)
			return t, d
		}
	}
	inst.input.Send(v, size(adds)+size(dels), at)
	if inst.feed != nil {
		inst.feed.send(v)
	}
	inst.scope.Drain()
	inst.scope.Compact(v)
	inst.next++
	return time.Since(start)
}

// edgeUpdates is a view's difference set in the shape Input.Send reads: the
// additions (+1) followed by the deletions (−1).
func edgeUpdates(adds, dels graph.Edges) func(int) (graph.Triple, dataflow.Diff) {
	na := size(adds)
	return func(i int) (graph.Triple, dataflow.Diff) {
		if i < na {
			return adds.Triple(i), 1
		}
		return dels.Triple(i - na), -1
	}
}

// size is e's length; a nil side of a step is empty.
func size(e graph.Edges) int {
	if e == nil {
		return 0
	}
	return e.Len()
}

// OutputDiffs returns the size of the output difference set of the last
// step.
func (inst *Instance) OutputDiffs() int { return inst.output.DiffCount() }

// Results returns the accumulated per-vertex results at the last version.
func (inst *Instance) Results() map[VertexValue]int64 { return inst.output.Result() }

// Reset returns the instance to its just-built condition in place: every
// operator's state, the captured answer, the input's version cursor, work
// counters and the iteration-cap flag are cleared, while the dataflow graph
// itself is reused. The instance then serves a new from-scratch run of comp
// starting at version 0: comp's roots are bound (a bfs dataflow built for
// source 1 serves source 2 once reset). A comp of another Shape is refused.
func (inst *Instance) Reset(comp Computation) error {
	if !sameShape(inst.comp, comp) {
		return fmt.Errorf("analytics: a runner built for %s cannot serve %s", inst.comp.Name(), comp.Name())
	}
	inst.scope.ResetState()
	inst.next = 0
	if inst.feed != nil {
		inst.feed.reset()
	}
	if inst.roots != nil {
		inst.roots.bind(comp)
	}
	return nil
}

// Shape is comp with the parameters that only pick its roots cleared: BFS{}
// for every bfs source, SSSP{} for every sssp source and MPSP{} for every
// list of pairs. Every other computation is its own shape. A runner serves
// any computation of the shape it was built for (Runner.Reset).
func Shape(comp Computation) Computation {
	switch comp.(type) {
	case BFS:
		return BFS{}
	case SSSP:
		return SSSP{}
	case MPSP:
		return MPSP{}
	}
	return comp
}

// sameShape reports whether a runner built for a serves b.
func sameShape(a, b Computation) bool { return reflect.DeepEqual(Shape(a), Shape(b)) }

// Park implements Runner.
func (inst *Instance) Park() { inst.scope.Park() }

// WorkCounts implements Runner.
func (inst *Instance) WorkCounts() []int64 { return inst.scope.WorkCounts() }

// IterCapHit implements Runner.
func (inst *Instance) IterCapHit() bool { return inst.scope.IterCapHit.Load() }

// Scope exposes the underlying scope (work counters, iteration caps).
func (inst *Instance) Scope() *dataflow.Scope { return inst.scope }

// Shared sub-dataflows used by several algorithms.

// nodes returns the set of vertices present in the edge stream, which the
// Instance counts where the edges enter (feed). WCC seeds a label at every
// vertex and PageRank ranks every vertex, so both need the whole set; the
// shortest-path roots take nodesAmong.
func (b *Builder) nodes() *dataflow.Collection[uint64] {
	if b.feed.verts == nil {
		b.feed.verts, _ = dataflow.NewInput[uint64](b.scope)
	}
	return b.feed.verts.Collection()
}

// outDegrees returns each source's out-degree in the edge stream as a
// (source, degree) record, counted like nodes.
func (b *Builder) outDegrees() *dataflow.Collection[degree] {
	if b.feed.degs == nil {
		b.feed.degs, _ = dataflow.NewInput[degree](b.scope)
	}
	return b.feed.degs.Collection()
}

// nodesAmong is the vertex set restricted to r's sources, which are read as
// the dataflow steps.
func (b *Builder) nodesAmong(r *roots) *dataflow.Collection[uint64] {
	return dataflow.Filter(b.nodes(), func(v uint64) bool { return slices.Contains(r.srcs, v) })
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
