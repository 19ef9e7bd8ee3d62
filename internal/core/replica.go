package core

import (
	"context"
	"fmt"
	"slices"
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
// They live in one LRU-bounded list and die with Close.

// replicaKey is everything that must be equal for a replica's dataflow to be
// the run's dataflow: the base graph (by pointer — a different graph loaded
// under the same name shares no edge indices), the computation's identity
// (bfs(source=1) and bfs(source=2) never share state), the worker count and
// the weight property the batches are resolved with. The collection is not
// part of it: a key holds one replica per collection run on it, and which of
// them a run can use is decided by content.
type replicaKey struct {
	graph   *graph.Graph
	ident   string
	workers int
	weight  string
}

// replicaDelta is one queued mutation delta: the owning collection's
// final-view membership change, stamped with the graph version the
// collection reached when it was maintained. Its edges are references into
// the graph: a later mutation renumbers no edge, so they read the same
// triples whenever the delta is fed.
type replicaDelta struct {
	version    uint64
	adds, dels graph.EdgeRefs
}

// replica is one warm runner and the identity of what it has absorbed. The
// engine's warmMu guards col and lastUse, so the store routes, ages and drops
// replicas without waiting on one; mu guards the rest and serializes runs
// over the replica. Lock order is warmMu, then mu, and nothing blocks on mu
// while holding warmMu.
type replica struct {
	key replicaKey
	// col is the collection of the replica's latest run, its owner: col's
	// next run comes back here, col's maintenance deltas are queued here once
	// the replica has absorbed all of col's stream, and re-creating col drops
	// it. pending is only ever col's: acquire hands a replica to another
	// collection only while pending is empty.
	col     *view.Collection
	lastUse time.Time

	mu      sync.Mutex
	runner  analytics.Runner
	version uint64         // graph version the absorbed state reflects
	pos     int            // stream views absorbed
	chain   uint64         // chained fingerprint of the absorbed prefix [0, pos)
	next    uint32         // next outer dataflow version to feed
	pending []replicaDelta // col's deltas since version, oldest first
	queued  int            // steps plus edges in pending
}

// maxReplicas bounds the replica list the way maxEnginePools bounds the warm
// pools: at the cap the least-recently-run replica is dropped (a later run of
// its collection simply rebuilds cold).
const maxReplicas = 64

// warmFor reports whether the replica can prove its state is a point on
// col's stream — the one place a replica's version meets a collection's. With
// deltas queued (they are col's, see replica.col) they must reach col's graph
// version; without, the replica must reflect that version and its absorbed
// prefix must be a prefix of col's stream. chain is col's ChainFingerprints.
func (st *replica) warmFor(col *view.Collection, chain []uint64) bool {
	if st.runner == nil {
		return false
	}
	if n := len(st.pending); n > 0 {
		return st.pending[n-1].version == col.Version
	}
	return st.version == col.Version && st.pos >= 1 && st.pos <= len(chain) && chain[st.pos-1] == st.chain
}

// acquire returns, locked, the replica a run of col on key executes on: col's
// own if it has one (warm or not — extend decides); else the idle replica of
// the key that has absorbed the longest prefix of col's stream, which col
// takes over (a sibling collection extending another's stream steps only its
// suffix); else a new empty one, evicting the least recently used at the
// bound. A replica busy with another collection's run is left alone.
func (e *Engine) acquire(key replicaKey, col *view.Collection, chain []uint64) *replica {
	e.warmMu.Lock()
	var st *replica
	for _, r := range e.replicas {
		if r.key == key && r.col == col {
			st = r
			break
		}
	}
	owned := st != nil
	if !owned {
		for _, r := range e.replicas {
			if r.key != key || !r.mu.TryLock() {
				continue
			}
			if len(r.pending) > 0 || !r.warmFor(col, chain) || (st != nil && st.pos >= r.pos) {
				r.mu.Unlock()
				continue
			}
			if st != nil {
				st.mu.Unlock()
			}
			st = r
		}
	}
	if st == nil {
		if len(e.replicas) >= maxReplicas {
			victim := 0
			for i, r := range e.replicas {
				if r.lastUse.Before(e.replicas[victim].lastUse) {
					victim = i
				}
			}
			e.replicas = slices.Delete(e.replicas, victim, victim+1)
		}
		st = &replica{key: key}
		st.mu.Lock()
		e.replicas = append(e.replicas, st)
	}
	st.col, st.lastUse = col, time.Now()
	e.warmMu.Unlock()
	if owned {
		st.mu.Lock()
	}
	return st
}

// queueDelta hands one maintained collection's final-view delta to every
// replica that has absorbed all of its stream, and drops the replicas whose
// queue outgrew its use. Called from runMaintenance under the mutation
// barrier, so no run holds a replica's mutex. A replica owned by another
// collection, or part-way through c's stream, gets nothing and fails closed:
// its version no longer reaches the graph's, so its next run rebuilds cold.
func (e *Engine) queueDelta(c *view.Collection, d view.ViewDelta, version uint64) {
	sizes := c.Stream.ViewSizes()
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	e.replicas = slices.DeleteFunc(e.replicas, func(st *replica) bool {
		return st.col == c && !st.queue(c, d, version, sizes[len(sizes)-1])
	})
}

// queue appends its owner c's delta to the replica if it has absorbed all of
// c's stream, and reports whether the replica is still worth keeping. Queued
// deltas are bounded by what they save: once a replica holds more queued
// steps and edges than its collection's final view has edges, a cold rebuild
// steps less than feeding them would.
func (st *replica) queue(c *view.Collection, d view.ViewDelta, version uint64, finalSize int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pos != c.Stream.NumViews() {
		return true
	}
	wc, err := c.Graph.WeightColumn(st.key.weight)
	if err != nil {
		// A mutation cannot remove a column; fail closed all the same.
		return false
	}
	// An empty delta still queues: the version chain must stay contiguous
	// for warmFor's staleness check.
	adds, dels := graph.EdgeRefs{G: c.Graph, W: wc, Idx: d.Adds}, graph.EdgeRefs{G: c.Graph, W: wc, Idx: d.Dels}
	st.pending = append(st.pending, replicaDelta{version: version, adds: adds, dels: dels})
	st.queued += 1 + adds.Len() + dels.Len()
	return st.queued <= finalSize
}

// dropIncStates discards every replica owned by a collection of the given
// name — re-creating a collection retires the state accumulated under it. A
// run in flight on a dropped replica finishes on it undisturbed.
func (e *Engine) dropIncStates(collection string) {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	e.replicas = slices.DeleteFunc(e.replicas, func(st *replica) bool {
		return st.col.Name == collection
	})
}

// runIncremental executes an Incremental run (RunOptions.Incremental) on the
// engine's replica for the run's key and collection.
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
	chain := col.Stream.ChainFingerprints()
	st := e.acquire(replicaKey{graph: col.Graph, ident: compIdentity(comp), workers: opts.Workers, weight: opts.WeightProp}, col, chain)
	defer st.mu.Unlock()
	return st.extend(ctx, col, chain, comp, opts.Workers, wc)
}

// extend brings the replica to col's final view and returns the run's
// result. In order: queued deltas that reach col's graph version are fed, one
// outer version each; when the replica then reflects col's version and its
// absorbed prefix is a prefix of col's stream (chained fingerprints agree),
// the remaining views [pos, k) are stepped; otherwise — no runner yet, a
// version the deltas do not reach, a stream that diverges — the replica
// cannot prove its state matches col (warmFor) and rebuilds cold from view
// zero. Nothing stale is ever served.
//
// Position, version and fingerprint advance with every step, so a run
// canceled between steps leaves a valid replica that the next run resumes.
// Either way the runner is parked on the way out (analytics.Runner.Park), so
// an idle replica keeps its dataflow state but no exchange columns.
// Stats and work counters cover only the steps this run fed;
// RunResult.Incremental reports that a warm replica was reused and
// CachedPrefix how many stream views it had already absorbed.
func (st *replica) extend(ctx context.Context, col *view.Collection, chain []uint64, comp analytics.Computation, workers, wc int) (*RunResult, error) {
	stream := col.Stream
	k := stream.NumViews()
	sizes := stream.ViewSizes()
	// step holds the additions and deletions each step feeds, by reference;
	// the runner reads them through pointers into it.
	var step [2]graph.EdgeRefs

	warm := st.warmFor(col, chain)
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
	prefix := st.pos
	runner := st.runner
	defer runner.Park() // idle between runs, canceled or not
	preWork := append([]int64(nil), runner.WorkCounts()...)
	done := totalWork(preWork)
	stats := make([]ViewStats, 0, len(st.pending)+k-st.pos)
	wallStart := time.Now()
	for len(st.pending) > 0 || st.pos < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vs := ViewStats{Mode: splitting.ModeDiff}
		delta := len(st.pending) > 0
		if delta {
			d := st.pending[0]
			step[0], step[1] = d.adds, d.dels
			vs.Index, vs.Name = int(st.next), fmt.Sprintf("Δv%d", d.version)
			vs.ViewSize, vs.DiffSize = sizes[k-1], d.adds.Len()+d.dels.Len()
		} else {
			t := st.pos
			step[0] = graph.EdgeRefs{G: col.Graph, W: wc, Idx: stream.Adds[t]}
			step[1] = graph.EdgeRefs{G: col.Graph, W: wc, Idx: stream.Dels[t]}
			vs.Index, vs.Name = t, stream.Names[t]
			vs.ViewSize, vs.DiffSize = sizes[t], stream.DiffSize(t)
		}
		vs.Duration = runner.Step(&step[0], &step[1])
		vs.OutputDiffs = runner.OutputDiffs()
		work := totalWork(runner.WorkCounts())
		vs.Work, done = work-done, work
		st.next++
		if delta {
			// The state now equals col's final view at the delta's version.
			// Once the last delta is in, that is what col's maintained
			// stream sums to; chain is not consulted before then.
			st.version, st.pending = st.pending[0].version, st.pending[1:]
			st.chain = chain[k-1]
			st.queued -= 1 + vs.DiffSize
		} else {
			st.chain = chain[st.pos]
			st.pos++
		}
		stats = append(stats, vs)
	}

	work := append([]int64(nil), runner.WorkCounts()...)
	for i := range preWork {
		work[i] -= preWork[i]
	}
	res := &RunResult{
		Computation:  comp.Name(),
		Collection:   col.Name,
		Mode:         DiffOnly,
		Stats:        stats,
		Wall:         time.Since(wallStart),
		Incremental:  warm,
		CachedPrefix: prefix,
		final:        runner.Results(),
		work:         work,
		iterCap:      runner.IterCapHit(),
	}
	for _, vs := range stats {
		res.Total += vs.Duration
	}
	return res, nil
}
