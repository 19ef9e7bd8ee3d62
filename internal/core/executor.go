package core

import (
	"context"
	"fmt"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/graph"
	"graphsurge/internal/obs"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// ExecMode selects the collection execution strategy (paper §5, §7.2-7.3).
type ExecMode uint8

const (
	// DiffOnly runs every view differentially on top of its predecessors.
	DiffOnly ExecMode = iota
	// Scratch runs every view from scratch (iterations still shared
	// differentially within each view).
	Scratch
	// Adaptive lets the splitting optimizer choose per batch of views.
	Adaptive
)

func (m ExecMode) String() string {
	switch m {
	case DiffOnly:
		return "diff-only"
	case Scratch:
		return "scratch"
	case Adaptive:
		return "adaptive"
	}
	return fmt.Sprintf("ExecMode(%d)", uint8(m))
}

// MarshalText encodes the mode as its name, so JSON request/response bodies
// carry "scratch" rather than an opaque enum ordinal.
func (m ExecMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a mode name. The CLI's short alias "diff" is accepted
// alongside the canonical names, so HTTP requests and -mode agree.
func (m *ExecMode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "diff", "diff-only", "":
		*m = DiffOnly
	case "scratch":
		*m = Scratch
	case "adaptive":
		*m = Adaptive
	default:
		return fmt.Errorf("core: unknown execution mode %q", text)
	}
	return nil
}

// RunOptions configures a computation run over a collection. The exported
// fields are plain values with JSON names, so the struct doubles as the wire
// options of a Session RunRequest (internal/server); the one
// non-serializable hook, OnSegment, is a local-caller extension excluded
// from the wire form.
type RunOptions struct {
	Mode ExecMode `json:"mode"`
	// Workers overrides the engine default when > 0.
	Workers int `json:"workers,omitempty"`
	// Parallelism is the number of independent collection segments executed
	// concurrently, each on its own dataflow replica (see DESIGN.md). The
	// default of 1 steps one view at a time. Segments only
	// exist where the plan splits, so DiffOnly gains nothing, Scratch becomes
	// embarrassingly parallel, and Adaptive overlaps segments as the
	// optimizer declares split points.
	Parallelism int `json:"parallelism,omitempty"`
	// WeightProp names the integer edge property used as edge weight; empty
	// means unit weights.
	WeightProp string `json:"weightProp,omitempty"`
	// Incremental runs on the engine's warm replica matching (base graph,
	// computation, workers, weightProp) instead of draining the difference
	// stream (replica.go): the replica feeds the mutation deltas queued since
	// it finished on this collection, or steps the views this collection
	// appends to the stream prefix it has absorbed, and rebuilds cold when it
	// can prove neither. RunResult.Incremental and CachedPrefix report which
	// happened; stats and work counters cover only what was stepped. Only
	// Engine runs support it; Mode, Parallelism and Schedule are ignored —
	// an incremental run is a single replica stepping diffs, so it never
	// splits.
	Incremental bool `json:"incremental,omitempty"`
	// BatchSize overrides the adaptive optimizer's ℓ (default 10).
	BatchSize int `json:"batchSize,omitempty"`
	// Schedule selects the dispatch order of a static plan's segments:
	// FIFO preserves collection order; LPT dispatches the largest segment
	// first by size (splitting.LPTOrder), tightening the makespan on skewed
	// collections. Results are identical either way — only scheduling
	// changes. Adaptive mode plans online and ignores it.
	Schedule splitting.Policy `json:"schedule,omitempty"`
	// OnSegment, when set, is invoked once per completed segment with its
	// stats, as the segment finishes — from the executor goroutine that
	// finished it, concurrently with other segments and before the run
	// returns. The HTTP server streams these as NDJSON progress events; the
	// callback must be safe for concurrent use and should not block for
	// long, since it runs on the segment's dispatch path. Cluster runs
	// invoke it on the coordinator as each shard outcome arrives.
	OnSegment func(SegmentStats) `json:"-"`
}

// ViewStats records one view's execution.
type ViewStats struct {
	Index       int            `json:"index"`
	Name        string         `json:"name"`
	Mode        splitting.Mode `json:"mode"`
	Duration    time.Duration  `json:"duration"`
	ViewSize    int            `json:"viewSize"`    // |GV|
	DiffSize    int            `json:"diffSize"`    // |δC|
	OutputDiffs int            `json:"outputDiffs"` // output difference-set size
	// Work is the dataflow work the view's step did, summed over workers:
	// the cost the adaptive optimizer learns from.
	Work int64 `json:"work"`
}

// SegmentStats records one segment's execution: the half-open view range it
// covered, the time spent acquiring its replica (building or resetting the
// dataflow, plus building the seed from its EBM column), the wall-clock time
// the replica spent stepping the segment's views.
type SegmentStats struct {
	Start int           `json:"start"`
	End   int           `json:"end"`
	Setup time.Duration `json:"setup"`
	Drain time.Duration `json:"drain"`
	// WireBytes is the encoded size of the shard's SegmentSpec payload when
	// the segment was dispatched to a cluster worker — what actually crossed
	// the network under the columnar codec. Zero for in-process segments.
	WireBytes int `json:"wireBytes,omitempty"`
}

// Len returns the number of views the segment executed.
func (s SegmentStats) Len() int { return s.End - s.Start }

// RunResult summarizes a collection run.
type RunResult struct {
	Computation string      `json:"computation"`
	Collection  string      `json:"collection"`
	Mode        ExecMode    `json:"mode"`
	Stats       []ViewStats `json:"views"`
	// Segments records per-segment replica setup and drain timings, in
	// collection order (one entry per from-scratch run).
	Segments []SegmentStats `json:"segments"`
	// Total is the summed per-view compute time. With Parallelism > 1
	// segments overlap, so Total exceeds elapsed time; Wall is the run's
	// actual wall-clock duration (Total ≈ Wall when sequential).
	Total  time.Duration `json:"total"`
	Wall   time.Duration `json:"wall"`
	Splits int           `json:"splits"` // number of from-scratch runs after view 0
	// Incremental reports that the run reused a warm replica
	// (RunOptions.Incremental): it stepped only the queued mutation deltas or
	// the stream suffix the replica had not absorbed, and the work counters
	// and stats are sized accordingly. A cold run — the replica build —
	// reports false.
	Incremental bool `json:"incremental,omitempty"`
	// CacheStatus reports how the serving cache (internal/tenant) satisfied
	// the run: empty for runs executed outside a cache, "miss" for a run the
	// cache executed and stored, "hit" for a stored result served without
	// execution, "dedup" for a request coalesced onto a concurrent identical
	// run, "replay" for a differential suffix replay on a warm replica.
	CacheStatus string `json:"cacheStatus,omitempty"`
	// CachedPrefix is the number of leading collection views the run's warm
	// replica had already absorbed when the run began (zero for a cold build
	// and for runs outside the replica path) — the other half of what
	// Incremental reports.
	CachedPrefix int `json:"cachedPrefix,omitempty"`
	// RunID names the run's trace: `graphsurge run -trace` renders it and
	// `GET /v1/traces/<runID>` on a serve process replays it as NDJSON.
	RunID string `json:"runId,omitempty"`
	// Metrics is the process metrics snapshot (obs.Default) taken as the run
	// completed — the same counters /metrics exposes, so the CLI, HTTP
	// responses, and BENCH.json all read one set of numbers. Counters are
	// process-lifetime values, not per-run deltas.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	final   map[analytics.VertexValue]int64
	work    []int64
	iterCap bool
}

// FinalResults returns the per-vertex results of the last view. The results
// are snapshotted when the run completes — the replicas that produced them
// have already been returned to the pool.
func (r *RunResult) FinalResults() map[analytics.VertexValue]int64 { return r.final }

// CloneShared returns a shallow copy sharing the result's payload — the
// stats slices, the final-results map and the work counters. The serving
// cache hands one to each caller of a cached run so per-response stamps
// (CacheStatus) never mutate the stored entry; the shared payload is treated
// as read-only by every consumer (renderers and the HTTP server only
// iterate it).
func (r *RunResult) CloneShared() *RunResult {
	cp := *r
	return &cp
}

// MaxWork returns the maximum per-worker work counter aggregated across
// every segment replica of the run, a critical-path proxy for distributed
// scaling (see DESIGN.md on Figure 10). Each replica's counters are
// snapshotted as its segment completes and summed per worker, so the proxy
// covers the whole run at any Parallelism — a Parallelism=4 scratch run
// reports the same aggregate as the sequential run.
func (r *RunResult) MaxWork() int64 {
	var m int64
	for _, c := range r.work {
		if c > m {
			m = c
		}
	}
	return m
}

// IterCapHit reports whether any fixpoint on any segment replica hit the
// safety cap during the run.
func (r *RunResult) IterCapHit() bool { return r.iterCap }

// RunCollection executes a computation over a named materialized collection.
// Workers and Parallelism default to the engine's Options when unset, the
// run draws its dataflow replicas from the engine's warm runner pool for
// (computation, workers), so repeated and concurrent calls amortize dataflow
// construction (see DESIGN.md on the engine pool lifecycle).
//
// ctx cancels the run: segment dispatch stops, replicas waiting for pool
// slots abandon the wait, and every already-acquired replica returns to the
// pool once its in-flight view step completes (a differential step cannot be
// interrupted mid-fixpoint). A canceled run returns ctx's error and no
// result.
func (e *Engine) RunCollection(ctx context.Context, collection string, comp analytics.Computation, opts RunOptions) (*RunResult, error) {
	col, err := e.LookupCollection(collection)
	if err != nil {
		return nil, err
	}
	return e.RunOn(ctx, col, comp, opts)
}

// RunOn executes a computation over a materialized collection value with the
// engine's pools and option defaults — RunCollection without the
// catalog lookup, for embedding callers holding a collection that was never
// registered. Cancellation semantics match RunCollection.
func (e *Engine) RunOn(ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions) (*RunResult, error) {
	return e.RunSharded(ctx, col, comp, opts, nil)
}

// RunSharded is RunOn with extra execution slots: a static plan's segments
// are dispatched onto the given SegmentRunners — a cluster coordinator passes
// one per unit of live worker capacity — as self-contained shards, beside the
// run's own Parallelism local replicas, which execute whatever a failed
// runner hands back (see collectionRun.dispatch). Everything else — the
// run/mutation barrier, which covers the whole sharded run, the root span,
// the run counters, scheduling order, progress hook and result assembly —
// is the local run's. Runs whose segments cannot be shipped ignore the slots
// and execute locally: adaptive mode plans online against live
// observations, incremental runs step a warm replica, and a computation
// without a wire spec cannot cross a process boundary.
func (e *Engine) RunSharded(ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions, slots []SegmentRunner) (*RunResult, error) {
	if err := e.beginRun(); err != nil {
		return nil, err
	}
	defer e.endRun()
	remote := remoteSlots{workers: max(opts.Workers, 0)}
	if spec, ok := analytics.SpecOf(comp); ok {
		remote.runners, remote.comp = slots, spec
	}
	if opts.Workers == 0 {
		opts.Workers = e.opts.Workers
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = e.opts.Parallelism
	}
	normalizeRunOptions(&opts)
	ctx, tr, created := e.ensureTrace(ctx)
	ctx, span := obs.StartSpan(ctx, "run",
		obs.String("collection", col.Name),
		obs.String("computation", comp.Name()),
		obs.String("mode", opts.Mode.String()))
	obs.M.RunsStarted.Inc()
	obs.M.RunsInflight.Add(1)
	var res *RunResult
	var err error
	if opts.Incremental {
		// Incremental runs keep private warm replicas (replica.go) —
		// never pool slots, whose in-place reset would discard exactly the
		// accumulated state an incremental run exists to reuse.
		res, err = e.runIncremental(ctx, col, comp, opts)
	} else {
		res, err = runCollection(ctx, col, comp, opts, e.runnerPool(comp, opts.Workers, opts.Parallelism), remote)
	}
	span.End()
	obs.M.RunsInflight.Add(-1)
	if err != nil {
		obs.M.RunsCanceled.Inc()
	} else {
		obs.M.RunsFinished.Inc()
		// One set of numbers for the CLI, HTTP responses and BENCH.json: the
		// trace identity and the counters /metrics exposes.
		res.RunID = tr.RunID()
		res.Metrics = obs.Default.Snapshot()
	}
	if created {
		e.traces.Add(tr)
	}
	return res, err
}

func normalizeRunOptions(opts *RunOptions) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
}

// RunCollectionContext executes a computation over all views of a
// materialized collection on a private replica pool, sharing computation
// across views according to the chosen mode.
//
// Execution is one pipeline, step → dispatch → merge (see DESIGN.md): the
// splitting strategy's per-view decisions are grouped into segments — each
// one from-scratch view plus its differential successors — independent
// segments execute on up to opts.Parallelism dataflow replicas, each stepping
// its views strictly in collection order, and every finished segment
// publishes a SegmentOutcome snapshotted before its replica returns to the
// pool. MergeSegmentOutcomes assembles the RunResult from those outcomes
// alone, so the result is self-contained whichever replica, process or
// strategy ran each segment. Cancellation semantics match
// Engine.RunCollection.
func RunCollectionContext(ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions) (*RunResult, error) {
	normalizeRunOptions(&opts)
	return runCollection(ctx, col, comp, opts, analytics.NewPool(comp, opts.Workers, opts.Parallelism), remoteSlots{})
}

// runCollection is the shared executor body. The replica pool may be private
// to this run (RunCollectionContext) or engine-owned and shared with
// concurrent runs; either way a per-run admission limiter caps this run's
// concurrently live replicas at opts.Parallelism, and every replica returns
// to the pool as its segment completes.
func runCollection(ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions, shared *analytics.Pool, remote remoteSlots) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := col.Graph
	wc, err := g.WeightColumn(opts.WeightProp)
	if err != nil {
		return nil, err
	}
	stream := col.Stream
	k := stream.NumViews()

	cr := newCollectionRun(col, wc)
	cr.progress = opts.OnSegment
	pool := newRunPool(shared, opts.Parallelism)
	wallStart := time.Now()

	var plan splitting.Plan
	if opts.Mode == Adaptive {
		// Adaptive mode plans online, interleaved with execution — its
		// planning cost is inside the run span, not a separate plan span.
		plan, err = cr.runAdaptive(ctx, opts, pool)
	} else {
		_, planSpan := obs.StartSpan(ctx, "plan",
			obs.String("schedule", opts.Schedule.String()),
			obs.Int("views", k))
		plan = staticPlan(opts.Mode, k)
		order := fifoOrder(len(plan.Segments))
		if opts.Schedule == splitting.LPT {
			order = splitting.LPTOrder(plan, cr.sizes, diffSizes(stream))
		}
		planSpan.End()
		err = cr.dispatch(ctx, plan, order, pool, opts.Parallelism, remote)
	}
	if err != nil {
		return nil, err
	}
	return MergeSegmentOutcomes(comp.Name(), col.Name, opts.Mode, plan, cr.outcomes, time.Since(wallStart))
}

// RunView executes a computation once over an individual filtered view — a
// one-view collection — and returns its results and runtime. It is the
// independent from-scratch reference collection runs are checked against: it
// builds a private dataflow and steps the view's edge list directly, through
// none of the segment pipeline. ctx is checked before the dataflow is built;
// a single view's step is one uninterruptible unit of work.
func RunView(ctx context.Context, col *view.Collection, comp analytics.Computation, workers int, weightProp string) (*ViewRunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	wc, err := col.Graph.WeightColumn(weightProp)
	if err != nil {
		return nil, err
	}
	runner, err := analytics.NewRunner(comp, workers)
	if err != nil {
		return nil, err
	}
	edges := col.Stream.Adds[0]
	dur := runner.Step(graph.EdgeRefs{G: col.Graph, W: wc, Idx: edges}, nil)
	return &ViewRunResult{
		Computation: comp.Name(),
		View:        col.Name,
		Edges:       len(edges),
		Duration:    dur,
		Results:     runner.Results(),
		work:        runner.WorkCounts(),
	}, nil
}
