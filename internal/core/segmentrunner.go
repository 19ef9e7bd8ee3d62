package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/graph"
	"graphsurge/internal/splitting"
)

// This file holds the two wire types of the segment pipeline and its merge.
// A collection run is a set of segments that share no dataflow state (see
// internal/splitting); a SegmentSpec is one of them made self-contained, its
// seed and difference sets carried as columnar batches, so any SegmentRunner
// — this engine or a remote worker behind an RPC client — can execute it
// without the collection, the graph, or the other segments. Every segment,
// wherever and however it ran, ends as a SegmentOutcome, and
// MergeSegmentOutcomes is the only place a run's result is assembled from
// them.

// SegmentSpec is one self-contained shard of a collection run: everything a
// process needs to execute the half-open view range [Start, End) of a
// collection and report a mergeable outcome. Edge data travels as columnar
// graph.EdgeBatch values — the weight column is resolved by the sharding
// side — so the spec is independent of any store state on the executing
// side. All fields are flat, exported, gob-encodable wire types; the edge
// batches ride inside the gob envelope as their own versioned binary codec
// (gob invokes EdgeBatch's BinaryMarshaler), so segment payloads ship
// delta-compressed columns instead of per-record gob triples.
type SegmentSpec struct {
	// Comp identifies the computation; the executing side resolves it back
	// into a built-in (closures cannot cross a process boundary).
	Comp analytics.Spec
	// Workers is the intra-dataflow worker count for the replica; 0 defers
	// to the executing engine's default, so a worker process sized with its
	// own -workers flag applies it to shards that don't pin a count.
	Workers int
	// Collection names the source collection (logs, observability).
	Collection string
	// Start and End delimit the shard's view range within the collection.
	Start, End int
	// NumNodes is the graph's node count: every edge names node ids below
	// it, and a runner's per-node columns grow no further (Validate).
	NumNodes int
	// Names, Modes, ViewSizes and DiffSizes are per-view metadata for the
	// range, indexed relative to Start (length End-Start); they let the
	// executing side fill complete ViewStats.
	Names     []string
	Modes     []splitting.Mode
	ViewSizes []int
	DiffSizes []int
	// Seed is the full edge batch of view Start — the from-scratch load that
	// opens the segment. A nil batch is an empty view.
	Seed *graph.EdgeBatch
	// Adds and Dels are the difference batches of the successor views
	// Start+1..End-1, indexed relative to Start+1 (length End-Start-1).
	// Elements must be non-nil (gob cannot encode nil slice elements);
	// empty difference sets are empty batches.
	Adds, Dels []*graph.EdgeBatch
}

// ErrNodeRange marks a segment spec whose edges name a node id at or above
// its NumNodes.
var ErrNodeRange = errors.New("core: segment spec names a node outside its graph")

// Validate checks the spec's internal consistency — range sanity, per-view
// slice lengths, and every edge's endpoints below NumNodes (ErrNodeRange) —
// so a corrupt or truncated wire payload fails loudly before any dataflow is
// built for it, and cannot make a runner grow its per-node columns without
// bound.
func (s *SegmentSpec) Validate() error {
	n := s.End - s.Start
	if s.Start < 0 || n < 1 {
		return fmt.Errorf("core: segment spec has invalid range [%d,%d)", s.Start, s.End)
	}
	if len(s.Names) != n || len(s.Modes) != n || len(s.ViewSizes) != n || len(s.DiffSizes) != n {
		return fmt.Errorf("core: segment spec [%d,%d) has %d/%d/%d/%d per-view entries, want %d",
			s.Start, s.End, len(s.Names), len(s.Modes), len(s.ViewSizes), len(s.DiffSizes), n)
	}
	if len(s.Adds) != n-1 || len(s.Dels) != n-1 {
		return fmt.Errorf("core: segment spec [%d,%d) has %d/%d difference sets, want %d",
			s.Start, s.End, len(s.Adds), len(s.Dels), n-1)
	}
	for _, b := range append(append([]*graph.EdgeBatch{s.Seed}, s.Adds...), s.Dels...) {
		if b == nil {
			continue
		}
		for i := range b.Srcs {
			if b.Srcs[i] >= uint64(s.NumNodes) || b.Dsts[i] >= uint64(s.NumNodes) {
				return fmt.Errorf("%w: edge %d->%d, %d nodes", ErrNodeRange, b.Srcs[i], b.Dsts[i], s.NumNodes)
			}
		}
	}
	return nil
}

// SegmentOutcome is a completed segment's result, shaped for merging:
// per-view stats carrying their absolute collection indices, the segment's
// timing entry, the replica's work counters and iteration-cap flag
// (snapshotted before the replica was recycled), and the per-vertex results
// at the segment's last view — the collection's final results when the
// segment ends the collection; local segments that end earlier leave it nil.
type SegmentOutcome struct {
	Stats   []ViewStats
	Segment SegmentStats
	Work    []int64
	IterCap bool
	Final   map[analytics.VertexValue]int64
}

// view returns the shard's view t as a step — the same step a local slot
// takes from the collection's stream.
func (s *SegmentSpec) view(t int) viewStep {
	i := t - s.Start
	v := viewStep{
		meta: ViewStats{Index: t, Name: s.Names[i], Mode: s.Modes[i], ViewSize: s.ViewSizes[i], DiffSize: s.DiffSizes[i]},
		seed: i == 0,
		adds: s.Seed,
	}
	if i > 0 {
		v.adds, v.dels = s.Adds[i-1], s.Dels[i-1]
	}
	return v
}

// SegmentRunner executes one self-contained collection shard. An engine
// implements it directly (Engine.RunSegment) and the cluster layer implements
// it with an RPC client per remote worker; Engine.RunSharded dispatches over
// either. ctx bounds the shard: an engine stops stepping at the next view
// boundary, the RPC implementation abandons the in-flight call. A runner that
// returns an error is not offered another shard in that run.
type SegmentRunner interface {
	RunSegment(ctx context.Context, spec *SegmentSpec) (*SegmentOutcome, error)
}

// RunSegment executes one shard on this engine, drawing the replica from the
// engine's warm runner pool for (computation, workers) — a worker process
// serving many jobs for the same computation recycles its dataflows across
// them exactly as repeated local runs do. Workers defaults to the engine's option
// when the spec leaves it unset; the pool is grown to the engine's
// Parallelism so that many concurrent RunSegment calls (a coordinator keeps
// a worker's slots busy) each get their own replica. A canceled ctx aborts
// the shard at the next view boundary (and any pool wait immediately); the
// replica still returns to the pool. The outcome always carries the shard's
// last view's results: the executing side cannot know whether the shard ends
// its collection.
func (e *Engine) RunSegment(ctx context.Context, spec *SegmentSpec) (*SegmentOutcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	comp, err := spec.Comp.Resolve()
	if err != nil {
		return nil, err
	}
	if err := e.beginRun(); err != nil {
		return nil, err
	}
	defer e.endRun()
	workers := spec.Workers
	if workers < 1 {
		workers = e.opts.Workers
	}
	pool := e.runnerPool(comp, workers, e.opts.Parallelism)
	r, setup, err := pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer pool.Release(r)
	s := &segmentExec{r: r, start: spec.Start, setup: setup}
	return s.run(ctx, spec.End, true, spec.view)
}

// MergeSegmentOutcomes assembles a run's RunResult from its segments'
// outcomes — static, sharded and adaptive segments alike: ViewStats land at their collection indices, per-segment timings
// sort into collection order, work counters sum per worker index across
// every replica, the iteration-cap flag ORs, and the final results come from
// the segment that ends the collection. Outcomes may arrive in any order, but
// together they must cover the plan's views exactly once — a lost or
// duplicated segment is a dispatcher bug surfaced here rather than silently
// folded into wrong results.
func MergeSegmentOutcomes(computation, collection string, mode ExecMode, plan splitting.Plan, outcomes []*SegmentOutcome, wall time.Duration) (*RunResult, error) {
	k := plan.NumViews()
	res := &RunResult{
		Computation: computation,
		Collection:  collection,
		Mode:        mode,
		Stats:       make([]ViewStats, k),
		Wall:        wall,
		Splits:      plan.Splits(),
		final:       map[analytics.VertexValue]int64{},
	}
	covered := make([]bool, k)
	for _, o := range outcomes {
		for _, st := range o.Stats {
			if st.Index < 0 || st.Index >= k {
				return nil, fmt.Errorf("core: merged view index %d outside collection of %d views", st.Index, k)
			}
			if covered[st.Index] {
				return nil, fmt.Errorf("core: view %d covered by more than one segment outcome", st.Index)
			}
			covered[st.Index] = true
			res.Stats[st.Index] = st
			res.Total += st.Duration
		}
		res.Segments = append(res.Segments, o.Segment)
		for i, c := range o.Work {
			for len(res.work) <= i {
				res.work = append(res.work, 0)
			}
			res.work[i] += c
		}
		res.iterCap = res.iterCap || o.IterCap
		if o.Segment.End == k && o.Final != nil {
			res.final = o.Final
		}
	}
	for t, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("core: view %d not covered by any segment outcome", t)
		}
	}
	sort.Slice(res.Segments, func(i, j int) bool { return res.Segments[i].Start < res.Segments[j].Start })
	return res, nil
}
