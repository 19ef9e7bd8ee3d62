package core

import (
	"context"
	"sync"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/graph"
	"graphsurge/internal/obs"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// runPool adapts a (possibly shared, engine-owned) replica pool to one run's
// admission limit: the pool's capacity may exceed this run's Parallelism
// when another concurrent run asked for more, so a local semaphore keeps
// this run's concurrently live replicas at exactly opts.Parallelism — a
// Parallelism=1 run holds one replica at a time no matter how large the
// shared pool has grown.
type runPool struct {
	pool *analytics.Pool
	sem  chan struct{}
}

func newRunPool(p *analytics.Pool, parallelism int) *runPool {
	return &runPool{pool: p, sem: make(chan struct{}, parallelism)}
}

// Acquire claims one of this run's admission slots and a pool replica,
// waiting for both under ctx: a canceled run abandons the wait instead of
// queueing for capacity it will never use.
func (rp *runPool) Acquire(ctx context.Context) (analytics.Runner, time.Duration, error) {
	select {
	case rp.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	r, setup, err := rp.pool.Acquire(ctx)
	if err != nil {
		<-rp.sem
		return nil, 0, err
	}
	return r, setup, nil
}

func (rp *runPool) Release(r analytics.Runner) {
	rp.pool.Release(r)
	<-rp.sem
}

// viewStep is one view ready to execute: its stats identity (index, name,
// mode, sizes — the step fills in the measurements) and the edges to feed,
// by reference (graph.EdgeRefs) on the local paths and as the shipped
// batches on a worker. seed marks a segment's opening view, whose adds are
// the whole view.
type viewStep struct {
	meta       ViewStats
	seed       bool
	adds, dels graph.Edges
}

// collectionRun is the shared context of one RunCollection call: read-only
// inputs, the adaptive optimizer's hook, and the outcomes completed segments
// publish.
// Every strategy — static dispatch on local and remote slots, adaptive
// planning — reduces to "a segment produced a SegmentOutcome", and
// MergeSegmentOutcomes assembles the result from them.
type collectionRun struct {
	col   *view.Collection
	sizes []int
	// wc is the weight column the run's edges are read with, and adds and
	// dels every view's difference sets as references over the graph's
	// columns: the stream's own lists, which a step reads in place.
	wc         int
	adds, dels []graph.EdgeRefs

	// observe feeds an adaptive run's optimizer each executed view's stats;
	// runAdaptive sets it, and static runs leave it nil. Safe to call from
	// segment goroutines.
	observe func(st ViewStats, seed bool)

	// progress, when set (RunOptions.OnSegment), receives each segment's
	// stats as record publishes it — the streaming hook the HTTP server uses.
	progress func(SegmentStats)

	mu       sync.Mutex
	outcomes []*SegmentOutcome
}

// newCollectionRun prepares a run of col whose edges are weighted by column
// wc: the view sizes and every view's difference sets as references, the
// only per-view state a run builds.
func newCollectionRun(col *view.Collection, wc int) *collectionRun {
	stream := col.Stream
	k := stream.NumViews()
	cr := &collectionRun{col: col, sizes: stream.ViewSizes(), wc: wc, adds: make([]graph.EdgeRefs, k), dels: make([]graph.EdgeRefs, k)}
	for t := range k {
		cr.adds[t] = graph.EdgeRefs{G: col.Graph, W: wc, Idx: stream.Adds[t]}
		cr.dels[t] = graph.EdgeRefs{G: col.Graph, W: wc, Idx: stream.Dels[t]}
	}
	return cr
}

// view returns view t of the run's stream as a step. A segment's opening
// view feeds the seed built for it; every other view feeds its difference
// sets, which point into the stream and copy nothing.
func (cr *collectionRun) view(t int, mode splitting.Mode, seed *graph.EdgeRefs) viewStep {
	stream := cr.col.Stream
	v := viewStep{
		meta: ViewStats{Index: t, Name: stream.Names[t], Mode: mode, ViewSize: cr.sizes[t], DiffSize: stream.DiffSize(t)},
		seed: seed != nil,
	}
	if seed != nil {
		v.adds = seed
	} else {
		v.adds, v.dels = &cr.adds[t], &cr.dels[t]
	}
	return v
}

// record publishes a completed segment's outcome to the run and to its
// progress hook. Called from whichever goroutine finished the segment; the
// hook runs outside the lock because it may write to a network client.
func (cr *collectionRun) record(out *SegmentOutcome) {
	cr.mu.Lock()
	cr.outcomes = append(cr.outcomes, out)
	cr.mu.Unlock()
	if cr.progress != nil {
		cr.progress(out.Segment)
	}
}

// segmentExec is one segment executing on a replica: the runner, the setup
// cost its seed view will carry (replica construction or reset plus the seed
// build), the per-view stats stepped so far and, when executing
// asynchronously, the queue the adaptive planner feeds and the drain signal.
type segmentExec struct {
	r     analytics.Runner
	start int           // first view index
	setup time.Duration // replica acquisition plus seed build
	drain time.Duration // wall time spent on the segment's views
	stats []ViewStats
	work  int64 // the replica's total work after the last step

	jobs chan viewJob
	done chan struct{}

	// span covers the segment from replica acquisition to release. It is
	// ended by releaseSeg — the one choke point every lifecycle path
	// (finish, cancel) goes through — so a canceled run closes its spans
	// exactly as reliably as it releases its replicas. Nil when the run
	// carries no trace and on a worker's shard replica.
	span *obs.Span
}

// step is the one place a view executes on a segment's replica — static
// slots, worker-side shards and the adaptive consumer all come through it.
// It steps the runner and completes the view's stats, among them Work: the
// growth of the replica's work counters, which an acquired replica starts at
// zero. Work is the adaptive optimizer's cost; Duration is reported only. A
// seed view that splits the collection reports its segment's setup with its
// step, so a split shows the dataflow and seed it rebuilds; the collection's
// opening view reports only the step.
func (s *segmentExec) step(v viewStep) ViewStats {
	st := v.meta
	start := time.Now()
	st.Duration = s.r.Step(v.adds, v.dels)
	if v.seed && st.Index > 0 {
		st.Duration = s.setup + time.Since(start)
	}
	st.OutputDiffs = s.r.OutputDiffs()
	work := totalWork(s.r.WorkCounts())
	st.Work, s.work = work-s.work, work
	s.stats = append(s.stats, st)
	return st
}

// totalWork sums per-worker work counters.
func totalWork(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// run steps views [s.start, end) in order and returns the segment's outcome.
// Cancellation is honored at view boundaries (a differential step cannot be
// interrupted mid-fixpoint); a canceled segment returns ctx's error and no
// outcome.
func (s *segmentExec) run(ctx context.Context, end int, final bool, view func(t int) viewStep) (*SegmentOutcome, error) {
	began := time.Now()
	for t := s.start; t < end; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.step(view(t))
	}
	s.drain = time.Since(began)
	return s.outcome(end, final), nil
}

// outcome snapshots a finished segment ending at view end: the replica's
// work counters and iteration-cap flag are read now because the replica is
// about to be released and reset for reuse, and final additionally captures
// the per-vertex results (the local paths ask for them only on the segment
// that ends the collection). The segment-latency histograms are observed
// here, in the process that spent the time. Call once, after the segment's
// last view and before its replica is released.
func (s *segmentExec) outcome(end int, final bool) *SegmentOutcome {
	out := &SegmentOutcome{
		Stats:   s.stats,
		Segment: SegmentStats{Start: s.start, End: end, Setup: s.setup, Drain: s.drain},
		Work:    s.r.WorkCounts(),
		IterCap: s.r.IterCapHit(),
	}
	if final {
		out.Final = s.r.Results()
	}
	obs.M.SegmentSetup.Observe(s.setup.Seconds())
	obs.M.SegmentDrain.Observe(s.drain.Seconds())
	return out
}

// openSegment claims a replica for a segment opening at view start. build
// is the time the segment's seed took to build; it joins the replica's own
// setup in the cost the seed view reports.
func openSegment(ctx context.Context, pool *runPool, start int, build time.Duration) (*segmentExec, error) {
	_, span := obs.StartSpan(ctx, "segment", obs.Int("start", start))
	r, setup, err := pool.Acquire(ctx)
	if err != nil {
		span.End()
		return nil, err
	}
	return &segmentExec{r: r, start: start, setup: setup + build, span: span}, nil
}

// releaseSeg ends the segment's span and returns its replica to the
// pool — the single release path, so spans and replicas can never leak
// independently.
func releaseSeg(pool *runPool, s *segmentExec) {
	s.span.End()
	pool.Release(s.r)
}

// segment is the unit of static dispatch: a plan segment and the seed the
// builder made for it — the opening view's edge indices, by reference — with
// the time that took.
type segment struct {
	splitting.Segment
	seed  *graph.EdgeRefs
	build time.Duration
}

// remoteSlots are the SegmentRunner slots a static run dispatches onto
// beside its local replicas — a cluster coordinator supplies one per unit of
// live worker capacity — plus what a shard needs to name its computation on
// the wire.
type remoteSlots struct {
	runners []SegmentRunner
	comp    analytics.Spec
	// workers is RunOptions.Workers as the caller set it: 0 ships "the
	// executing engine's default", so each worker applies its own.
	workers int
}

// dispatch executes a static plan: a work-conserving list schedule of its
// segments, in the given order, over slots. One builder goroutine builds
// seeds (cr.seed) in dispatch order and offers each segment on an unbuffered
// queue, so it stays exactly one seed ahead of the slots: a slot that frees
// up finds its next seed already built, and at most slots+1 seeds are live.
// A slot is either a local pool replica or a remote SegmentRunner:
//
//   - A remote slot takes fresh segments, materializes each as a
//     self-contained SegmentSpec and ships it. A slot whose runner fails
//     retires for the rest of the run and hands its segment to the local
//     slots.
//   - A local slot first serves what remote slots handed back, then — once
//     every remote slot has finished or retired, which is immediately in a
//     plain local run — the fresh queue. While a remote slot lives, local
//     replicas run only what a remote failed, so a healthy cluster run
//     builds no local dataflow.
//
// Segments share no dataflow state, so any interleaving yields the same
// outcomes; MergeSegmentOutcomes checks they cover the plan exactly once.
//
// Cancellation, or a local slot's failure (which cancels the rest), stops
// the builder, makes every slot stop at its next view boundary or abandon
// its remote call, and releases every replica; aborted segments record no
// outcome — the run is returning an error, so partial results are never
// read.
func (cr *collectionRun) dispatch(ctx context.Context, plan splitting.Plan, order []int, pool *runPool, local int, remote remoteSlots) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	view := func(seg *segment) func(int) viewStep {
		return func(t int) viewStep {
			if t == seg.Start {
				return cr.view(t, plan.Modes[t], seg.seed)
			}
			return cr.view(t, plan.Modes[t], nil)
		}
	}

	// spare holds the index lists of seeds whose segments have run, for the
	// builder to refill, so a run allocates about as many lists as seeds can
	// be live at once (slots+1, its capacity), not one per segment.
	spare := make(chan []uint32, local+len(remote.runners)+1)
	recycle := func(seg *segment) {
		select {
		case spare <- seg.seed.Idx:
		default:
		}
	}

	var wg sync.WaitGroup
	fresh := make(chan *segment)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(fresh)
		for _, si := range order {
			seg := &segment{Segment: plan.Segments[si]}
			var list []uint32
			select {
			case list = <-spare:
			default:
			}
			seg.seed, seg.build = cr.seed(seg.Start, list)
			select {
			case fresh <- seg:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Sized to the plan: a retiring slot never blocks handing its segment back.
	retry := make(chan *segment, len(order))
	var remotes sync.WaitGroup
	for _, r := range remote.runners {
		remotes.Add(1)
		go func(r SegmentRunner) {
			defer remotes.Done()
			for seg := range fresh {
				out, err := r.RunSegment(ctx, remote.spec(cr.col, seg, view(seg)))
				if err != nil {
					retry <- seg
					return
				}
				recycle(seg)
				cr.record(out)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		remotes.Wait()
		close(retry)
	}()

	for i := 0; i < local; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, queue := range []<-chan *segment{retry, fresh} {
				for seg := range queue {
					s, err := openSegment(ctx, pool, seg.Start, seg.build)
					if err != nil {
						cancel(err)
						return
					}
					out, err := s.run(ctx, seg.End, seg.End == plan.NumViews(), view(seg))
					releaseSeg(pool, s)
					if err != nil {
						cancel(err)
						return
					}
					recycle(seg)
					cr.record(out)
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(ctx)
}

// spec materializes a segment as the self-contained shard a SegmentRunner
// executes: the same view steps a local slot would take, with the seed and
// the successor views' difference sets built up front as sorted batches
// because they must cross a wire. This is where a run's edge sets become
// graph.EdgeBatch values.
func (rs remoteSlots) spec(col *view.Collection, seg *segment, view func(int) viewStep) *SegmentSpec {
	n := seg.Len()
	sp := &SegmentSpec{
		Comp:       rs.comp,
		Workers:    rs.workers,
		Collection: col.Name,
		Start:      seg.Start,
		End:        seg.End,
		NumNodes:   col.Graph.NumNodes,
		Names:      make([]string, n),
		Modes:      make([]splitting.Mode, n),
		ViewSizes:  make([]int, n),
		DiffSizes:  make([]int, n),
		Seed:       batch(seg.seed),
	}
	for i := 0; i < n; i++ {
		v := view(seg.Start + i)
		sp.Names[i], sp.Modes[i], sp.ViewSizes[i], sp.DiffSizes[i] = v.meta.Name, v.meta.Mode, v.meta.ViewSize, v.meta.DiffSize
		if i > 0 {
			sp.Adds, sp.Dels = append(sp.Adds, batch(v.adds)), append(sp.Dels, batch(v.dels))
		}
	}
	return sp
}

// batch materializes an edge set for the wire: sorted, so a set ships as the
// same bytes whichever order it is read in, and never nil (see SegmentSpec).
func batch(e graph.Edges) *graph.EdgeBatch {
	return graph.MakeEdgeBatch(e.Len(), e.Triple)
}

// viewJob is one view handed to an adaptive segment's executor: the view's
// index, the mode the planner chose, and — on the segment's first view only —
// the edge indices seeding the segment's fresh dataflow.
type viewJob struct {
	t    int
	mode splitting.Mode
	seed *graph.EdgeRefs // non-nil exactly on the segment's first view
}

// barrier is a no-op job: sending it on a segment's unbuffered queue returns
// only once the consumer has finished every view queued before it, so their
// observations are in the models.
var barrier = viewJob{t: -1}

// runJob executes one planned view on the segment's replica and feeds its
// stats to the optimizer.
func (cr *collectionRun) runJob(s *segmentExec, j viewJob) {
	began := time.Now()
	st := s.step(cr.view(j.t, j.mode, j.seed))
	s.drain += time.Since(began)
	cr.observe(st, j.seed != nil)
}

// consume drains the segment's queued views in order and signals completion.
// After ctx is canceled, queued views are discarded instead of executed: the
// queue still drains to completion (the planner may be blocked sending into
// it), but no further dataflow steps start.
func (cr *collectionRun) consume(ctx context.Context, s *segmentExec) {
	for j := range s.jobs {
		if j == barrier || ctx.Err() != nil {
			continue
		}
		cr.runJob(s, j)
	}
	close(s.done)
}

// runAdaptive interleaves online planning with segment execution. The
// planner walks views in collection order, deciding each view's mode with
// the optimizer; segments are handed off to pool replicas as the model
// declares split points.
//
// With Parallelism=1 each view executes inline before the next decision, so
// every decision sees all prior observations — exactly the sequential
// executor's behavior. With Parallelism>1 the open segment's views are
// executed by a dedicated goroutine consuming an unbuffered queue: the
// planner stays at most one view ahead of execution, so every decision sees
// the observations of all views but the one in flight — except the first
// modeled one, view 2's, which waits for view 1 to finish so that it sees
// both bootstrap observations as the inline planner does — and when a split
// closes a segment its tail can still be draining while the next segment
// seeds on a fresh replica. The optimizer learns from work, not time, so at
// Parallelism=1 with one dataflow worker the plan is the same on every run;
// at Parallelism>1 which views are still in flight at a decision depends on
// timing, so split points — never results — may differ from the inline
// plan's.
func (cr *collectionRun) runAdaptive(ctx context.Context, opts RunOptions, pool *runPool) (splitting.Plan, error) {
	k := cr.col.Stream.NumViews()
	opt := &splitting.Optimizer{BatchSize: opts.BatchSize}
	planner := splitting.NewPlanner(opt)

	// One mutex serializes planner decisions against observations arriving
	// from segment goroutines; the optimizer is not safe for concurrent use.
	var mu sync.Mutex
	cr.observe = func(st ViewStats, seed bool) {
		mu.Lock()
		defer mu.Unlock()
		if seed {
			opt.ObserveScratch(st.ViewSize, st.Work)
		} else {
			opt.ObserveDiff(st.DiffSize, st.Work)
		}
	}

	// Inline is this run's parallelism, not the pool's capacity: a shared
	// engine pool may be larger than this run is allowed to use.
	inline := opts.Parallelism == 1
	diffs := diffSizes(cr.col.Stream)
	var segs []*segmentExec // asynchronously executing segments, in order
	var cur *segmentExec
	// handoffs tracks the goroutines finishing closed segments; they must be
	// joined before returning, or a late record would race the merge.
	var handoffs sync.WaitGroup
	// drain joins the already-dispatched segments. It is only called once
	// every segment's queue is closed; handoff goroutines own the replicas of
	// segments closed at split points, the caller the open one's.
	drain := func(err error) (splitting.Plan, error) {
		for _, s := range segs {
			<-s.done
		}
		handoffs.Wait()
		return planner.Plan(), err
	}
	for t := 0; t < k; t++ {
		if err := ctx.Err(); err != nil {
			// Canceled: stop planning and close the open segment's queue (its
			// consumer discards queued views once it sees the canceled ctx),
			// then release its replica once everything has drained.
			if cur != nil && !inline {
				close(cur.jobs)
			}
			plan, err := drain(err)
			if cur != nil {
				releaseSeg(pool, cur)
			}
			return plan, err
		}
		mu.Lock()
		mode, split := planner.Extend(cr.sizes[t], diffs[t])
		mu.Unlock()
		j := viewJob{t: t, mode: mode}
		if split {
			if cur != nil {
				if inline {
					cr.record(cur.outcome(t, false))
					releaseSeg(pool, cur)
				} else {
					// Hand the closed segment off: it keeps draining while
					// the new segment seeds; its replica returns to the pool
					// once drained.
					close(cur.jobs)
					handoffs.Add(1)
					go func(s *segmentExec, end int) {
						defer handoffs.Done()
						<-s.done
						cr.record(s.outcome(end, false))
						releaseSeg(pool, s)
					}(cur, t)
				}
			}
			var build time.Duration
			j.seed, build = cr.seed(t, nil)
			var err error
			if cur, err = openSegment(ctx, pool, t, build); err != nil {
				return drain(err)
			}
			if !inline {
				cur.jobs = make(chan viewJob)
				cur.done = make(chan struct{})
				segs = append(segs, cur)
				go cr.consume(ctx, cur)
			}
		}
		if inline {
			cr.runJob(cur, j)
			continue
		}
		cur.jobs <- j
		// No modeled choice is made before both models hold an observation:
		// from the scratch model alone peekMode picks scratch, and Decide
		// would apply it to the whole first batch of ℓ views. So the
		// parallel planner waits once, for view 1's diff observation.
		if t == 1 {
			cur.jobs <- barrier
		}
	}
	if cur == nil {
		// Empty collection: nothing ran, nothing to acquire.
		return planner.Plan(), nil
	}
	if !inline {
		close(cur.jobs)
	}
	plan, _ := drain(nil)
	cr.record(cur.outcome(k, true))
	releaseSeg(pool, cur)
	// A cancellation that lands during the tail drain still fails the run:
	// consumers discard queued views after cancel, so the outcomes would be
	// partial even though every queue closed normally.
	return plan, ctx.Err()
}
