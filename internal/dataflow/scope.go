package dataflow

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"graphsurge/internal/timestamp"
)

// DefaultMaxIter is the safety cap on fixpoint iterations; exceeding it sets
// Scope.IterCapHit instead of looping forever on a diverging computation.
const DefaultMaxIter = 1 << 20

// node is one stateful operator instance in a scope's dataflow graph.
// Stateless (linear) operators are fused into subscription closures and never
// become nodes.
type node interface {
	// run processes all pending work at exactly time t on worker w. It may
	// emit deltas at times ≥ t (in the partial order).
	run(w int, t timestamp.Time)
	// hasPending reports whether worker w has work at exactly time t.
	hasPending(w int, t timestamp.Time) bool
	// minPending returns worker w's lexicographically smallest pending time.
	minPending(w int) (timestamp.Time, bool)
	// reset drops all operator state — key spaces and their stores,
	// pending deltas, schedules — without touching the dataflow wiring,
	// returning the node to its just-built condition. Implementations
	// truncate their columns in place, keeping every emptied column for
	// the next run; a keyed operator or a Capture clears its key tables.
	// Only called while the scope is quiescent.
	reset()
	// name identifies the operator for diagnostics.
	name() string
}

// Scope owns a dataflow graph and its multi-worker scheduler. Build the graph
// with the operator constructors (Map, JoinMap, Reduce, Iterate, ...), feed
// versions through Inputs, and call Drain to run to quiescence.
//
// A Scope is not safe for concurrent use by multiple goroutines: graph
// construction, feeding and draining must happen from one driver goroutine.
type Scope struct {
	workers int
	seed    maphash.Seed
	nodes   []node

	// MaxIter caps fixpoint iterations (safety against divergence).
	MaxIter uint32
	// IterCapHit is set if any loop exceeded MaxIter; results for that
	// version are then incomplete.
	IterCapHit atomic.Bool

	// frontier is 1 + the last fully drained version; each keyed operator
	// hands it to its key spaces the next time it runs.
	frontier atomic.Uint32

	// version is the last one an input fed; recycled holds what lets each
	// holder of recycled exchange columns go of them. See release.
	version  uint32
	recycled []func()

	work []paddedCounter // per-worker records processed, for scaling proxies

	// idx is each worker's consolidation index (batch.consolidate), shared
	// by every pending buffer's take on that worker. drainTime runs one node
	// at a time on a worker, so a worker's index has one user at a time.
	idx [][]uint32
}

// keptIdx is the largest consolidation index, in entries, a worker keeps
// when the exchange columns go (release): 256 KiB, an index for batches of
// up to 2¹⁵ records, which a differential pass would otherwise regrow after
// every Park.
const keptIdx = 1 << 16

type paddedCounter struct {
	n int64
	_ [7]int64 // avoid false sharing between worker counters
}

// NewScope creates a scope with the given worker count (minimum 1).
func NewScope(workers int) *Scope {
	if workers < 1 {
		workers = 1
	}
	return &Scope{
		workers: workers,
		seed:    maphash.MakeSeed(),
		MaxIter: DefaultMaxIter,
		work:    make([]paddedCounter, workers),
		idx:     make([][]uint32, workers),
	}
}

// Workers returns the number of workers in the scope.
func (s *Scope) Workers() int { return s.workers }

func (s *Scope) addNode(n node) { s.nodes = append(s.nodes, n) }

// recycles registers what lets a holder's recycled exchange columns
// (operator output scratch, routed exchange parts, schedules, pending
// buffers) go. The input's and the fused operators' scratch is not among
// them: it hands on chunkRows rows at a time, so it is bounded and kept.
func (s *Scope) recycles(release func()) { s.recycled = append(s.recycled, release) }

// release lets every registered exchange column go. Columns are recycled
// within a version, from version to version of a differential run, and from
// version 0 across ResetState into the next version 0 (a reset scope runs
// whole views, each about the size of the last). Registered ones go in two
// places only: as an input enters version 1 (enter), so what a whole view
// grew is not pinned under the difference sets that follow, and when the
// scope's owner parks a scope past version 0 (Park), so an idle scope holds
// no difference set's columns. Bounded scratch (chunkRows) stays through
// both.
func (s *Scope) release() {
	for _, f := range s.recycled {
		f()
	}
	for w := range s.idx {
		if cap(s.idx[w]) > keptIdx {
			s.idx[w] = nil
		}
	}
}

// enter is called by an input about to feed version v.
func (s *Scope) enter(v uint32) {
	if v < s.version {
		panic("dataflow: input versions must be fed in nondecreasing order")
	}
	if s.version == 0 && v > 0 {
		s.release()
	}
	s.version = v
}

// ResetState returns the scope to its just-built condition in place: every
// stateful operator drops its histories and pending work, the version cursor
// and the compaction frontier rewind, the iteration-cap flag and work
// counters zero. The dataflow graph itself — nodes, subscriptions, fused
// closures, worker shards, and the emptied column sets of queues, key
// tables, stores and output scratch — is untouched, so a reset scope
// re-executes from scratch without paying graph construction or column
// growth again. The cost is a
// memclr of each keyed operator shard's key tables, one per key space (4 B
// a slot), and of each Capture's key table per worker.
//
// Must be called from the driver goroutine while the scope is quiescent
// (after Drain); resetting with work in flight would discard deltas
// mid-computation.
func (s *Scope) ResetState() {
	for _, n := range s.nodes {
		n.reset()
	}
	s.frontier.Store(0)
	s.version = 0
	s.IterCapHit.Store(false)
	s.ResetWork()
}

func (s *Scope) addWork(w int, n int) { s.work[w].n += int64(n) }

// WorkCounts returns per-worker counts of records processed by stateful
// operators since the last ResetWork. The maximum over workers is the
// critical-path proxy used by the scalability experiment.
func (s *Scope) WorkCounts() []int64 {
	out := make([]int64, s.workers)
	for w := range out {
		out[w] = s.work[w].n
	}
	return out
}

// ResetWork zeroes the per-worker work counters.
func (s *Scope) ResetWork() {
	for w := range s.work {
		s.work[w].n = 0
	}
}

// partition returns the worker owning a key.
func partition[K comparable](s *Scope, k K) int {
	if s.workers == 1 {
		return 0
	}
	return owner(s, maphash.Comparable(s.seed, k))
}

// owner returns the worker owning a key whose hash is hk.
func owner(s *Scope, hk uint64) int { return int(hk % uint64(s.workers)) }

// minPendingTime scans all nodes and workers for the smallest pending time.
// Only called while workers are idle.
func (s *Scope) minPendingTime() (timestamp.Time, bool) {
	var best timestamp.Time
	found := false
	for _, n := range s.nodes {
		for w := 0; w < s.workers; w++ {
			if t, ok := n.minPending(w); ok && (!found || t.LexLess(best)) {
				best, found = t, true
			}
		}
	}
	return best, found
}

// Drain processes all outstanding work, in lexicographic time order, until
// the scope is quiescent. Call after feeding inputs for a version.
func (s *Scope) Drain() {
	for {
		t, ok := s.minPendingTime()
		if !ok {
			return
		}
		s.drainTime(t)
	}
}

// drainTime runs passes over the nodes at exactly time t until no node on
// any worker has work left at t. A pass runs each node on every worker with
// work for it, in parallel, and waits for them all before the next node, so
// a node sees the whole of what the nodes before it sent at t, as on one
// worker: how a time's records fall into runs, and so the work they cost,
// does not depend on the worker count or on goroutine timing.
func (s *Scope) drainTime(t timestamp.Time) {
	for progress := true; progress; {
		progress = false
		for _, n := range s.nodes {
			var wg sync.WaitGroup
			for w := 0; w < s.workers; w++ {
				if !n.hasPending(w, t) {
					continue
				}
				progress = true
				if s.workers == 1 {
					n.run(w, t)
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					n.run(w, t)
				}()
			}
			wg.Wait()
		}
	}
}

// Compact marks all versions ≤ outer as complete: historical trace times
// with Outer < outer may be clamped to outer and merged. Sound once all
// future work happens at versions > outer, i.e. call it after draining
// version outer and before feeding version outer+1. This is the analogue of
// Differential Dataflow's arrangement compaction and keeps per-key trace
// sizes proportional to the number of distinct iteration depths rather than
// the number of views.
//
// The call only advances the frontier; the exchange columns stay for the
// next version (see release). A keyed operator shard that runs in a later
// version hands the frontier to its key spaces, and every timed store at a
// key's slot but its schedule is clamped to it at the slot's next access
// (see arrange.Keys.Stale), so compaction costs time proportional to the
// keys a version touches, not to the shard's state. The totally ordered
// inputs (JoinMapTotal's right side, JoinMin's and JoinMax's edges and
// roots, JoinSum's edges) keep no time to clamp.
// ResetState drops the histories and keeps their columns for the next run.
func (s *Scope) Compact(outer uint32) {
	for {
		cur := s.frontier.Load()
		if outer+1 <= cur || s.frontier.CompareAndSwap(cur, outer+1) {
			return
		}
	}
}

// Park tells the scope it goes idle: past version 0 it releases the recycled
// exchange columns, which the next version would reuse but an idle scope
// should not hold. A scope parked at version 0 keeps them, since the next
// run of a reset scope is a whole view about the size of the last. Call it
// from the driver goroutine while the scope is quiescent; parking is free to
// repeat and changes no result.
func (s *Scope) Park() {
	if s.version > 0 {
		s.release()
	}
}

// compactionOuter returns the outer coordinate histories may clamp to, and
// whether any compaction has been requested.
func (s *Scope) compactionOuter() (uint32, bool) {
	f := s.frontier.Load()
	if f == 0 {
		return 0, false
	}
	return f - 1, true
}
