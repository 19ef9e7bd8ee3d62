package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/graph"
	"graphsurge/internal/obs"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// Warm replicas: the engine's one store of dataflows that outlive a run. A
// replica is a private runner that has absorbed a prefix of some
// collection's difference stream; RunOptions.Incremental runs on the replica
// matching the run instead of draining the stream from version zero, so the
// run costs what the replica has not seen yet — the mutation deltas queued
// since it finished (a dynamic-graph re-run), or the views a longer or
// redefined collection appends to the absorbed prefix (the serving layer's
// suffix replay). Both are the same extension of one absorbed stream.
//
// Replicas are deliberately not pool slots: a pooled replica is reset
// between runs, while a warm replica's accumulated state is the whole point.
// They live in one LRU-bounded map and die with Close.

// replicaKey is everything that must be equal for a replica's dataflow to be
// the run's dataflow: the base graph (by pointer — a different graph loaded
// under the same name shares no edge indices), the computation's identity
// (bfs(source=1) and bfs(source=2) never share state), the worker count and
// the weight property the batches are resolved with. The collection is not
// part of it: which collections a replica can serve is decided by content.
type replicaKey struct {
	graph   *graph.Graph
	ident   string
	workers int
	weight  string
}

// replicaDelta is one queued mutation delta: the tracked collection's
// final-view membership change as columnar batches, stamped with the graph
// version the collection reached when it was maintained.
type replicaDelta struct {
	version    uint64
	adds, dels *graph.EdgeBatch
}

// replica is one warm runner and the identity of what it has absorbed. mu
// guards every field but lastUse (the engine's incMu) and serializes runs
// over the replica; lock order is incMu, then mu.
type replica struct {
	mu      sync.Mutex
	runner  analytics.Runner
	version uint64 // graph version the absorbed state reflects
	pos     int    // stream views absorbed
	chain   uint64 // chained fingerprint of the absorbed prefix [0, pos)
	next    uint32 // next outer dataflow version to feed
	// col is the collection the replica last finished on: its state equals
	// col's final view at version, so col's maintenance deltas apply to it.
	// Nil while the replica is part-way through a stream.
	col     *view.Collection
	pending []replicaDelta // col's deltas since version, oldest first
	queued  int            // steps plus edges queued since the last finished run
	lastUse time.Time
}

// maxReplicas bounds the replica map the way maxEnginePools bounds the warm
// pools: at the cap the least-recently-run replica is dropped (a later run on
// its key simply rebuilds cold).
const maxReplicas = 64

// replicaFor returns the replica for the key, creating an empty one —
// evicting the least recently used at the bound — when there is none.
func (e *Engine) replicaFor(key replicaKey) *replica {
	e.incMu.Lock()
	defer e.incMu.Unlock()
	st := e.replicas[key]
	if st == nil {
		if len(e.replicas) >= maxReplicas {
			var victim replicaKey
			var oldest time.Time
			first := true
			for k, old := range e.replicas {
				if first || old.lastUse.Before(oldest) {
					victim, oldest, first = k, old.lastUse, false
				}
			}
			delete(e.replicas, victim)
		}
		st = &replica{}
		e.replicas[key] = st
	}
	st.lastUse = time.Now()
	return st
}

// queueDelta hands one maintained collection's final-view delta to every
// replica that finished on it. Called from runMaintenance under the mutation
// barrier, so no run holds a replica's mutex concurrently. A replica that
// finished elsewhere gets nothing and fails closed: its version no longer
// reaches the graph's, so its next run rebuilds cold.
func (e *Engine) queueDelta(c *view.Collection, d view.ViewDelta, version uint64) {
	sizes := c.Stream.ViewSizes()
	e.incMu.Lock()
	defer e.incMu.Unlock()
	for key, st := range e.replicas {
		if key.graph == c.Graph && !st.queue(c, d, version, key.weight, sizes[len(sizes)-1]) {
			delete(e.replicas, key)
		}
	}
}

// queue appends c's delta to the replica if it finished on c, and reports
// whether the replica is still worth keeping. Queued deltas are bounded by
// what they save: once a replica holds more queued steps and edges than its
// collection's final view has edges, a cold rebuild steps less than feeding
// them would.
func (st *replica) queue(c *view.Collection, d view.ViewDelta, version uint64, weight string, finalSize int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.col != c {
		return true
	}
	wc, err := c.Graph.WeightColumn(weight)
	if err != nil {
		// A mutation cannot remove a column; fail closed all the same.
		return false
	}
	cols := edgeBatcher(c.Graph, wc)
	// An empty delta still queues: the version chain must stay contiguous
	// for extend's staleness check.
	st.pending = append(st.pending, replicaDelta{version: version, adds: cols(d.Adds), dels: cols(d.Dels)})
	st.queued += 1 + len(d.Adds) + len(d.Dels)
	return st.queued <= finalSize
}

// dropIncStates discards every replica that finished on a collection of the
// given name — re-creating a collection retires the state accumulated under
// it. Replicas that finished elsewhere are matched by content, never by
// name, and need no invalidation.
func (e *Engine) dropIncStates(collection string) {
	e.incMu.Lock()
	defer e.incMu.Unlock()
	for key, st := range e.replicas {
		st.mu.Lock()
		if st.col != nil && st.col.Name == collection {
			delete(e.replicas, key)
		}
		st.mu.Unlock()
	}
}

// runIncremental executes an Incremental run (RunOptions.Incremental) on the
// engine's replica for the run's key.
func (e *Engine) runIncremental(ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !identifiableComp(comp) {
		return nil, fmt.Errorf("core: incremental runs need an identifiable computation (no closures or interface fields); run non-incrementally instead")
	}
	if col.Stream == nil || col.Stream.NumViews() == 0 {
		return nil, fmt.Errorf("core: collection %q has no views to run incrementally", col.Name)
	}
	wc, err := col.Graph.WeightColumn(opts.WeightProp)
	if err != nil {
		return nil, err
	}
	st := e.replicaFor(replicaKey{graph: col.Graph, ident: compIdentity(comp), workers: opts.Workers, weight: opts.WeightProp})
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.extend(ctx, col, comp, opts.Workers, wc)
}

// extend brings the replica to col's final view and returns the run's
// result. In order: when the queued deltas are col's and chain to col's
// graph version, they are fed, one outer version each; when the replica then
// reflects col's version and its absorbed prefix is a prefix of col's stream
// (chained fingerprints agree), the remaining views [pos, k) are stepped;
// otherwise — no runner yet, a version the deltas do not reach, a stream
// that diverges — the replica cannot prove its state matches col and
// rebuilds cold from view zero. Nothing stale is ever served.
//
// Position, version and fingerprint advance with every step, so a run
// canceled between steps leaves a valid replica that the next run resumes.
// Stats and work counters cover only the steps this run fed;
// RunResult.Incremental reports that a warm replica was reused and
// CachedPrefix how many stream views it had already absorbed.
func (st *replica) extend(ctx context.Context, col *view.Collection, comp analytics.Computation, workers, wc int) (*RunResult, error) {
	stream := col.Stream
	k := stream.NumViews()
	chain := stream.ChainFingerprints()
	sizes := stream.ViewSizes()
	cols := edgeBatcher(col.Graph, wc)

	reach := st.version
	if n := len(st.pending); n > 0 {
		reach = st.pending[n-1].version
	}
	warm := st.runner != nil && reach == col.Version
	if len(st.pending) > 0 {
		warm = warm && st.col == col
	} else {
		warm = warm && st.pos >= 1 && st.pos <= k && chain[st.pos-1] == st.chain
	}
	ctx, span := obs.StartSpan(ctx, "replica",
		obs.String("warm", strconv.FormatBool(warm)),
		obs.Int("prefix", st.pos),
		obs.Int("pending", len(st.pending)))
	defer span.End()
	if warm {
		obs.M.IncrementalWarm.Inc()
	} else {
		obs.M.IncrementalCold.Inc()
		runner, err := analytics.NewRunner(comp, workers)
		if err != nil {
			return nil, err
		}
		st.runner, st.version, st.pos, st.chain, st.next = runner, col.Version, 0, 0, 0
		st.pending, st.queued = nil, 0
	}
	if st.pos < k {
		st.col = nil
	}
	prefix := st.pos
	runner := st.runner
	preWork := append([]int64(nil), runner.WorkCounts()...)
	stats := make([]ViewStats, 0, len(st.pending)+k-st.pos)
	wallStart := time.Now()
	for len(st.pending) > 0 || st.pos < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vs := ViewStats{Mode: splitting.ModeDiff}
		var adds, dels *graph.EdgeBatch
		delta := len(st.pending) > 0
		if delta {
			d := st.pending[0]
			adds, dels = d.adds, d.dels
			vs.Index, vs.Name = int(st.next), fmt.Sprintf("Δv%d", d.version)
			vs.ViewSize, vs.DiffSize = sizes[k-1], adds.Len()+dels.Len()
		} else {
			t := st.pos
			adds, dels = cols(stream.Adds[t]), cols(stream.Dels[t])
			vs.Index, vs.Name = t, stream.Names[t]
			vs.ViewSize, vs.DiffSize = sizes[t], stream.DiffSize(t)
		}
		vs.Duration = runner.StepBatch(adds, dels)
		vs.OutputDiffs = runner.OutputDiffs(st.next)
		runner.DropOutputsBefore(st.next)
		st.next++
		if delta {
			// The state now equals col's final view at the delta's version.
			// Once the last delta is in, that is what col's maintained
			// stream sums to; chain is not consulted before then.
			st.version, st.pending = st.pending[0].version, st.pending[1:]
			st.chain = chain[k-1]
		} else {
			st.chain = chain[st.pos]
			st.pos++
		}
		stats = append(stats, vs)
	}
	st.col, st.pending, st.queued = col, nil, 0

	work := append([]int64(nil), runner.WorkCounts()...)
	for i := range preWork {
		work[i] -= preWork[i]
	}
	// The replica outlives the run, so the result must not alias its state.
	final := make(map[analytics.VertexValue]int64)
	for v, n := range runner.Results() {
		final[v] = n
	}
	res := &RunResult{
		Computation:  comp.Name(),
		Collection:   col.Name,
		Mode:         DiffOnly,
		Stats:        stats,
		Wall:         time.Since(wallStart),
		Incremental:  warm,
		CachedPrefix: prefix,
		final:        final,
		work:         work,
		iterCap:      runner.IterCapHit(),
	}
	for _, vs := range stats {
		res.Total += vs.Duration
	}
	return res, nil
}
