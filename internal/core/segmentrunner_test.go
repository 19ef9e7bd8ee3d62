package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/graph"
	"graphsurge/internal/splitting"
)

// tapRunner is an in-process worker: a SegmentRunner over its own engine
// that keeps the outcomes it returned. failAfter >= 0 makes it a worker that
// dies mid-run: it completes that many shards and fails every later one.
// waitFor, when set, holds each shard until the channel closes.
type tapRunner struct {
	eng       *Engine
	failAfter int
	failed    chan struct{} // closed on the first injected failure
	waitFor   <-chan struct{}

	mu       sync.Mutex
	outcomes []*SegmentOutcome
}

func newTapRunner(t *testing.T) *tapRunner {
	t.Helper()
	eng, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &tapRunner{eng: eng, failAfter: -1, failed: make(chan struct{})}
}

func (w *tapRunner) RunSegment(ctx context.Context, spec *SegmentSpec) (*SegmentOutcome, error) {
	if w.waitFor != nil {
		<-w.waitFor
	}
	w.mu.Lock()
	dead := w.failAfter >= 0 && len(w.outcomes) >= w.failAfter
	w.mu.Unlock()
	if dead {
		select {
		case <-w.failed:
		default:
			close(w.failed)
		}
		return nil, errors.New("injected worker failure")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	out, err := w.eng.RunSegment(ctx, spec)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.outcomes = append(w.outcomes, out)
	w.mu.Unlock()
	return out, nil
}

// TestSegmentPipelineEquivalence runs one collection through every way a
// segment can be produced — local replicas at several parallelisms and
// dispatch orders, in-process workers, a worker dying mid-run, the adaptive
// planner inline and overlapped — and holds each result against
// the sequential runs: same final results, same per-view identity and output
// sizes, segments tiling the collection exactly once, per-view work summing
// to the run's work counters, and for static plans the same aggregated work.
func TestSegmentPipelineEquivalence(t *testing.T) {
	ctx := context.Background()
	col := disjointCollection(t, 10, 300)
	k := col.Stream.NumViews()
	comp := analytics.WCC{}

	// Sequential references, one per way a view can execute: seq[Scratch]
	// has every view as a segment's seed, seq[DiffOnly] every view after the
	// first as a differential step.
	seq := map[ExecMode]*RunResult{}
	for _, mode := range []ExecMode{Scratch, DiffOnly} {
		res, err := RunCollectionContext(ctx, col, comp, RunOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		seq[mode] = res
	}
	if !reflect.DeepEqual(seq[Scratch].FinalResults(), seq[DiffOnly].FinalResults()) {
		t.Fatal("sequential scratch and diff-only runs disagree")
	}

	static := []ExecMode{Scratch, DiffOnly}
	cases := []struct {
		name    string
		modes   []ExecMode
		opts    RunOptions
		workers int  // in-process workers lent to the run as remote slots
		kill    bool // the first worker dies after one shard
	}{
		{name: "local p=1", modes: static, opts: RunOptions{Parallelism: 1}},
		{name: "local p=3 fifo", modes: static, opts: RunOptions{Parallelism: 3}},
		{name: "local p=3 lpt", modes: static, opts: RunOptions{Parallelism: 3, Schedule: splitting.LPT}},
		{name: "two workers", modes: static, opts: RunOptions{Parallelism: 2}, workers: 2},
		{name: "two workers lpt", modes: static, opts: RunOptions{Schedule: splitting.LPT}, workers: 2},
		{name: "worker killed mid-run", modes: []ExecMode{Scratch}, opts: RunOptions{Parallelism: 2}, workers: 2, kill: true},
		{name: "adaptive p=1", modes: []ExecMode{Adaptive}, opts: RunOptions{Parallelism: 1, BatchSize: 2}},
		{name: "adaptive p=3", modes: []ExecMode{Adaptive}, opts: RunOptions{Parallelism: 3, BatchSize: 2}},
		// A decision at every view, each made with whatever observations
		// have arrived: the plan whose split points move most between runs.
		{name: "adaptive p=3 ℓ=1", modes: []ExecMode{Adaptive}, opts: RunOptions{Parallelism: 3, BatchSize: 1}},
	}
	for _, c := range cases {
		for _, mode := range c.modes {
			t.Run(fmt.Sprintf("%s/%v", c.name, mode), func(t *testing.T) {
				e := engineWithCollection(t, Options{}, col)
				var taps []*tapRunner
				var slots []SegmentRunner
				for i := 0; i < c.workers; i++ {
					w := newTapRunner(t)
					taps, slots = append(taps, w), append(slots, w)
				}
				if c.kill {
					// The healthy worker holds its first shard until the other
					// has died, so the victim is certain to be offered a second.
					taps[0].failAfter = 1
					taps[1].waitFor = taps[0].failed
				}
				opts := c.opts
				opts.Mode = mode
				var progress sync.Mutex
				var streamed []SegmentStats
				opts.OnSegment = func(st SegmentStats) {
					progress.Lock()
					streamed = append(streamed, st)
					progress.Unlock()
				}
				res, err := e.RunSharded(ctx, col, comp, opts, slots)
				if err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(res.FinalResults(), seq[Scratch].FinalResults()) {
					t.Fatal("final results diverge from the sequential run")
				}
				if len(res.Stats) != k {
					t.Fatalf("%d view stats, want %d", len(res.Stats), k)
				}
				next, seeds := 0, map[int]bool{}
				for _, seg := range res.Segments {
					if seg.Start != next || seg.End <= seg.Start {
						t.Fatalf("segments do not tile the collection: %+v", res.Segments)
					}
					next = seg.End
					seeds[seg.Start] = true
				}
				if next != k {
					t.Fatalf("segments cover [0,%d), want [0,%d): %+v", next, k, res.Segments)
				}
				if len(streamed) != len(res.Segments) {
					t.Fatalf("progress hook saw %d segments, result has %d", len(streamed), len(res.Segments))
				}
				if res.Splits != len(res.Segments)-1 {
					t.Fatalf("%d splits for %d segments", res.Splits, len(res.Segments))
				}
				for i, st := range res.Stats {
					ref := seq[DiffOnly].Stats[i]
					if seeds[i] {
						ref = seq[Scratch].Stats[i]
					}
					if st.Index != i || st.Name != ref.Name || st.ViewSize != ref.ViewSize ||
						st.DiffSize != ref.DiffSize || st.OutputDiffs != ref.OutputDiffs {
						t.Fatalf("view %d (seed=%v):\ngot  %+v\nwant %+v", i, seeds[i], st, ref)
					}
					if st.Duration <= 0 {
						t.Fatalf("view %d has no measured duration", i)
					}
				}
				// Every unit of work a replica counted lands on exactly one
				// view: the optimizer's observations add up to the run.
				var viewWork int64
				for _, st := range res.Stats {
					viewWork += st.Work
				}
				if runWork := totalWork(res.work); viewWork != runWork || runWork == 0 {
					t.Fatalf("views account for %d work, the run's counters for %d", viewWork, runWork)
				}
				if mode != Adaptive {
					if res.MaxWork() != seq[mode].MaxWork() {
						t.Fatalf("MaxWork %d, sequential %d", res.MaxWork(), seq[mode].MaxWork())
					}
					if len(res.Segments) != len(seq[mode].Segments) {
						t.Fatalf("%d segments, sequential plan has %d", len(res.Segments), len(seq[mode].Segments))
					}
				}

				remote := 0
				for _, w := range taps {
					remote += len(w.outcomes)
				}
				switch {
				case c.kill:
					if len(taps[0].outcomes) != 1 {
						t.Fatalf("victim completed %d shards, want exactly 1", len(taps[0].outcomes))
					}
					if remote >= len(res.Segments) {
						t.Fatal("the failed shard did not re-run on a local replica")
					}
					if builtReplicas(e) == 0 {
						t.Fatal("the coordinator engine built no replica for the re-queued shard")
					}
				case c.workers > 0:
					// While a remote slot lives, local replicas run nothing.
					if remote != len(res.Segments) {
						t.Fatalf("%d of %d shards ran on workers", remote, len(res.Segments))
					}
					if n := builtReplicas(e); n != 0 {
						t.Fatalf("a healthy sharded run built %d local replicas", n)
					}
				}
			})
		}
	}

	// A lost or duplicated segment is a dispatcher bug that the merge must
	// surface as an error, never as silent wrong results. The outcomes are
	// the ones a one-worker sharded run shipped back.
	t.Run("merge coverage", func(t *testing.T) {
		e := engineWithCollection(t, Options{}, col)
		w := newTapRunner(t)
		if _, err := e.RunSharded(ctx, col, comp, RunOptions{Mode: Scratch}, []SegmentRunner{w}); err != nil {
			t.Fatal(err)
		}
		plan := staticPlan(Scratch, k)
		if len(w.outcomes) != k {
			t.Fatalf("worker completed %d shards, want %d", len(w.outcomes), k)
		}
		if _, err := MergeSegmentOutcomes("wcc", col.Name, Scratch, plan, w.outcomes[1:], 0); err == nil {
			t.Fatal("merge accepted a missing shard")
		}
		if _, err := MergeSegmentOutcomes("wcc", col.Name, Scratch, plan, append(w.outcomes[:k:k], w.outcomes[0]), 0); err == nil {
			t.Fatal("merge accepted a duplicated shard")
		}
		if _, err := MergeSegmentOutcomes("wcc", col.Name, Scratch, plan, w.outcomes, 0); err != nil {
			t.Fatalf("merge refused exact coverage: %v", err)
		}
	})
}

// builtReplicas sums the dataflows an engine's pools have built.
func builtReplicas(e *Engine) int {
	n := 0
	for _, ps := range e.PoolStats() {
		n += ps.Built
	}
	return n
}

// TestRunSegmentReusesPool: consecutive shards for the same computation on
// one engine recycle warm replicas instead of rebuilding dataflows — the
// property that makes a long-lived worker process cheap per job.
func TestRunSegmentReusesPool(t *testing.T) {
	col := randomCollection(t, 4, 53)
	e := engineWithCollection(t, Options{}, col)
	w := newTapRunner(t)
	if _, err := e.RunSharded(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Scratch}, []SegmentRunner{w}); err != nil {
		t.Fatal(err)
	}
	stats := w.eng.PoolStats()
	if len(stats) != 1 {
		t.Fatalf("%d worker pools, want 1", len(stats))
	}
	if ps := stats[0]; ps.Built != 1 || ps.Reused != col.Stream.NumViews()-1 {
		t.Fatalf("%d dataflows built and %d reused for %d sequential shards, want 1 and %d",
			ps.Built, ps.Reused, col.Stream.NumViews(), col.Stream.NumViews()-1)
	}
}

// TestSegmentSpecValidate pins the refusal of inconsistent shards: bad
// ranges and per-view slices that disagree with the range must error before
// any dataflow is touched, and RunSegment must enforce it.
func TestSegmentSpecValidate(t *testing.T) {
	good := func() *SegmentSpec {
		return &SegmentSpec{
			Comp:  analytics.Spec{Algorithm: "wcc"},
			Start: 2, End: 4,
			Names:     []string{"a", "b"},
			Modes:     make([]splitting.Mode, 2),
			ViewSizes: []int{1, 2},
			DiffSizes: []int{1, 1},
			Adds:      make([]*graph.EdgeBatch, 1),
			Dels:      make([]*graph.EdgeBatch, 1),
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("consistent spec refused: %v", err)
	}
	mutations := map[string]func(*SegmentSpec){
		"empty range":    func(s *SegmentSpec) { s.End = s.Start },
		"negative start": func(s *SegmentSpec) { s.Start = -1 },
		"short names":    func(s *SegmentSpec) { s.Names = s.Names[:1] },
		"short modes":    func(s *SegmentSpec) { s.Modes = s.Modes[:1] },
		"short sizes":    func(s *SegmentSpec) { s.ViewSizes = nil },
		"short diffs":    func(s *SegmentSpec) { s.DiffSizes = nil },
		"short adds":     func(s *SegmentSpec) { s.Adds = nil },
		"extra dels":     func(s *SegmentSpec) { s.Dels = append(s.Dels, nil) },
		"node out of range": func(s *SegmentSpec) {
			s.NumNodes, s.Dels[0] = 5, graph.NewEdgeBatch([]graph.Triple{{Src: 1, Dst: 5}})
		},
	}
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range mutations {
		sp := good()
		mutate(sp)
		if err := sp.Validate(); err == nil {
			t.Fatalf("%s: validated", name)
		}
		if _, err := e.RunSegment(context.Background(), sp); err == nil {
			t.Fatalf("%s: RunSegment accepted it", name)
		}
	}
}
