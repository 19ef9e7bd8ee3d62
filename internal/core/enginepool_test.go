package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/view"
)

// engineWithCollection registers a prebuilt collection on a fresh engine.
func engineWithCollection(t testing.TB, opts Options, col *view.Collection) *Engine {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddGraph(col.Graph); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.collections[col.Name] = col
	e.mu.Unlock()
	return e
}

// TestEnginePoolReusesRunnersAcrossRuns is the engine-pooling contract: a
// second RunCollection call on the same (computation, workers) builds no new
// dataflow — every replica, including the one that served the first run's
// final view, returned to the pool and is recycled via in-place reset.
func TestEnginePoolReusesRunnersAcrossRuns(t *testing.T) {
	col := randomCollection(t, 5, 21)
	e := engineWithCollection(t, Options{}, col)

	res1, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{Mode: Scratch})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.pools) != 1 {
		t.Fatalf("%d pools after first run", len(e.pools))
	}
	var pool *analytics.Pool
	for _, en := range e.pools {
		pool = en.pool
	}
	built1, _ := pool.Counts()
	if built1 != 1 {
		t.Fatalf("first sequential run built %d runners, want 1", built1)
	}
	if pool.Live() != 0 {
		t.Fatalf("%d replicas still live after the run", pool.Live())
	}
	if pool.Idle() != 1 {
		t.Fatalf("%d idle replicas after the run, want 1 (the final runner returned)", pool.Idle())
	}

	res2, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{Mode: Scratch})
	if err != nil {
		t.Fatal(err)
	}
	built2, reused2 := pool.Counts()
	if built2 != built1 {
		t.Fatalf("second run built %d new runners", built2-built1)
	}
	if reused2 == 0 {
		t.Fatal("second run reused no runners")
	}

	// Different parameterizations of the same-named computation must not
	// share recycled dataflows.
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.BFS{Source: 1}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.BFS{Source: 2}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(e.pools) != 3 {
		t.Fatalf("%d pools, want 3 (wcc, bfs@1, bfs@2)", len(e.pools))
	}

	// Recycled runners produce identical results.
	got, want := res2.FinalResults(), res1.FinalResults()
	if len(got) != len(want) {
		t.Fatalf("%d results on reused runner, first run %d", len(got), len(want))
	}
	for kv, d := range want {
		if got[kv] != d {
			t.Fatalf("reused result %+v = %d, first run %d", kv, got[kv], d)
		}
	}
}

// funcComp is a computation whose parameters include a func: its printed
// value cannot distinguish captured state, so the engine must not pool it.
type funcComp struct {
	weight func(int64) int64
}

func (funcComp) Name() string { return "custom-func" }
func (c funcComp) Build(b *analytics.Builder) {
	analytics.WCC{}.Build(b)
}

// ptrComp carries a nested pointer parameter, which prints as an address.
type ptrComp struct {
	cfg *int64
}

func (ptrComp) Name() string { return "custom-ptr" }
func (c ptrComp) Build(b *analytics.Builder) {
	analytics.WCC{}.Build(b)
}

// paramComp is a pointer computation with a parameter, which the engine's
// pool key includes.
type paramComp struct {
	Iterations uint32
}

func (*paramComp) Name() string { return "custom-param" }
func (c *paramComp) Build(b *analytics.Builder) {
	analytics.PageRank{Iterations: c.Iterations}.Build(b)
}

// TestUnidentifiableComputationNotPooled pins the keying guard: two
// parameterizations of a func-carrying computation print identically, so
// sharing a pool would silently recycle one's dataflow into the other. The
// engine gives such computations a private per-run pool instead.
func TestUnidentifiableComputationNotPooled(t *testing.T) {
	if identifiableComp(funcComp{}) {
		t.Fatal("func-carrying computation reported identifiable")
	}
	// Nested pointers print as addresses, not pointee values; only the
	// top-level pointer receiver (which fmt dereferences) is identifiable.
	if identifiableComp(ptrComp{cfg: new(int64)}) {
		t.Fatal("nested-pointer computation reported identifiable")
	}
	if !identifiableComp(analytics.BFS{Source: 1}) || !identifiableComp(analytics.SCC{}) || !identifiableComp(&paramComp{}) {
		t.Fatal("built-in computation reported unidentifiable")
	}
	col := randomCollection(t, 3, 29)
	e := engineWithCollection(t, Options{}, col)
	mk := func(scale int64) funcComp {
		return funcComp{weight: func(w int64) int64 { return w * scale }}
	}
	if _, err := e.RunCollection(context.Background(), col.Name, mk(1), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCollection(context.Background(), col.Name, mk(2), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(e.pools) != 0 {
		t.Fatalf("func-carrying computation was pooled: %d pools", len(e.pools))
	}
}

// TestEngineConcurrentRunsSharePool runs several RunCollection calls
// concurrently on one engine (the production API-server shape) and checks
// they share one pool race-free with identical results. The race detector
// covers the pool's internal synchronization.
func TestEngineConcurrentRunsSharePool(t *testing.T) {
	col := randomCollection(t, 6, 33)
	e := engineWithCollection(t, Options{}, col)

	baseline, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{Mode: Scratch})
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	results := make([]*RunResult, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mixed parallelism: the pool grows to the largest request while
			// each run self-limits to its own.
			results[i], errs[i] = e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{
				Mode:        Scratch,
				Parallelism: 1 + i%3,
			})
		}(i)
	}
	wg.Wait()

	if len(e.pools) != 1 {
		t.Fatalf("%d pools, want 1", len(e.pools))
	}
	var pool *analytics.Pool
	for _, en := range e.pools {
		pool = en.pool
	}
	if pool.Size() < 3 {
		t.Fatalf("pool did not grow to the largest parallelism: size %d", pool.Size())
	}
	if pool.Live() != 0 {
		t.Fatalf("%d replicas leaked", pool.Live())
	}
	want := baseline.FinalResults()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		got := results[i].FinalResults()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d results, baseline %d", i, len(got), len(want))
		}
		for kv, d := range want {
			if got[kv] != d {
				t.Fatalf("run %d: result %+v = %d, baseline %d", i, kv, got[kv], d)
			}
		}
	}
}

// TestEmptyCollectionLeaksNoSlot pins the empty-collection fix: runs over a
// zero-view collection acquire no replica slot, so repeated runs on an
// engine-level pool neither deadlock nor leak capacity, in every mode.
func TestEmptyCollectionLeaksNoSlot(t *testing.T) {
	full := randomCollection(t, 3, 5)
	empty := view.NewCollection("empty", full.Graph, &view.DiffStream{})
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddGraph(full.Graph); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.collections[full.Name] = full
	e.collections[empty.Name] = empty
	e.mu.Unlock()

	for _, mode := range []ExecMode{DiffOnly, Scratch, Adaptive} {
		// More runs than the pool has slots: a leaked slot would deadlock.
		for i := 0; i < 3; i++ {
			res, err := e.RunCollection(context.Background(), empty.Name, analytics.WCC{}, RunOptions{Mode: mode})
			if err != nil {
				t.Fatalf("%s run %d: %v", mode, i, err)
			}
			if len(res.FinalResults()) != 0 || len(res.Stats) != 0 || len(res.Segments) != 0 {
				t.Fatalf("%s: empty collection produced %+v", mode, res)
			}
			if res.MaxWork() != 0 || res.IterCapHit() {
				t.Fatalf("%s: empty collection recorded work", mode)
			}
		}
	}
	for _, en := range e.pools {
		if en.pool.Live() != 0 {
			t.Fatalf("%d slots leaked", en.pool.Live())
		}
	}
	// The shared pool still serves a real run afterwards.
	res, err := e.RunCollection(context.Background(), full.Name, analytics.WCC{}, RunOptions{Mode: Scratch})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalResults()) == 0 {
		t.Fatal("no results after empty-collection runs")
	}
}

// TestMaxWorkAggregatesAcrossSegments pins the Figure-10 accounting fix:
// with one dataflow worker the per-run work aggregate is deterministic, so a
// Parallelism=4 scratch run must report exactly the sequential run's
// aggregate — not just the last segment's counters.
func TestMaxWorkAggregatesAcrossSegments(t *testing.T) {
	col := randomCollection(t, 8, 17)
	seq, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Scratch, Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Scratch, Workers: 1, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.MaxWork() == 0 {
		t.Fatal("no work recorded")
	}
	if par.MaxWork() != seq.MaxWork() {
		t.Fatalf("parallel MaxWork %d != sequential aggregate %d", par.MaxWork(), seq.MaxWork())
	}
	// The aggregate covers all segments: strictly more than any single
	// segment's share on this multi-segment plan.
	if len(seq.Segments) != col.Stream.NumViews() {
		t.Fatalf("%d segments for scratch, want %d", len(seq.Segments), col.Stream.NumViews())
	}
}

// TestSegmentStatsRecorded checks per-segment timings: ranges tile the
// collection in order and every segment drained for a measurable time.
func TestSegmentStatsRecorded(t *testing.T) {
	col := randomCollection(t, 6, 9)
	for _, mode := range []ExecMode{DiffOnly, Scratch, Adaptive} {
		for _, par := range []int{1, 3} {
			res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: mode, Parallelism: par, BatchSize: 2})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/p=%d", mode, par)
			if len(res.Segments) == 0 {
				t.Fatalf("%s: no segment stats", name)
			}
			next := 0
			for i, seg := range res.Segments {
				if seg.Start != next || seg.End <= seg.Start {
					t.Fatalf("%s: segment %d range [%d,%d) does not tile from %d", name, i, seg.Start, seg.End, next)
				}
				next = seg.End
				if seg.Drain <= 0 {
					t.Fatalf("%s: segment %d drain not recorded: %+v", name, i, seg)
				}
				if seg.Start > 0 && seg.Setup <= 0 {
					t.Fatalf("%s: split segment %d setup not recorded: %+v", name, i, seg)
				}
			}
			if next != col.Stream.NumViews() {
				t.Fatalf("%s: segments end at %d, want %d", name, next, col.Stream.NumViews())
			}
		}
	}
}

// TestEngineParallelismDefault checks Options.Parallelism is applied when
// RunOptions leaves Parallelism unset, and that an explicit RunOptions value
// overrides it (the CLI -parallel path).
func TestEngineParallelismDefault(t *testing.T) {
	col := randomCollection(t, 4, 3)
	e := engineWithCollection(t, Options{Parallelism: 3}, col)
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{Mode: Scratch}); err != nil {
		t.Fatal(err)
	}
	var pool *analytics.Pool
	for _, en := range e.pools {
		pool = en.pool
	}
	if pool.Size() != 3 {
		t.Fatalf("pool size %d, want engine default 3", pool.Size())
	}
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{Mode: Scratch, Parallelism: 5}); err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 5 {
		t.Fatalf("pool size %d, want explicit override 5", pool.Size())
	}
}

// TestMutatedComputationDropsStalePool pins the self-healing identity check:
// mutating a pointer computation after submission leaves a pool whose cached
// computation contradicts its key; the next lookup under that key must
// rebuild the pool instead of building replicas from the mutated object.
func TestMutatedComputationDropsStalePool(t *testing.T) {
	col := randomCollection(t, 3, 31)
	e := engineWithCollection(t, Options{}, col)
	c := &paramComp{Iterations: 3}
	if _, err := e.RunCollection(context.Background(), col.Name, c, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	key := poolKey{name: c.Name(), ident: compIdentity(c), workers: 1}
	stale := e.pools[key]
	if stale == nil {
		t.Fatal("no pool under the Iterations:3 key")
	}
	c.Iterations = 8 // mutate after submission: the cached object no longer matches its key
	if _, err := e.RunCollection(context.Background(), col.Name, &paramComp{Iterations: 3}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if e.pools[key] == stale {
		t.Fatal("stale pool with mutated computation was reused")
	}
	if got := e.pools[key].pool.Computation().(*paramComp).Iterations; got != 3 {
		t.Fatalf("rebuilt pool builds Iterations=%d runners under the Iterations:3 key", got)
	}
}

// TestEnginePoolCountBounded pins the pool-map cap: a sweep over many
// parameterizations (one pool key each) must not accumulate unbounded warm
// pools on a long-lived engine.
func TestEnginePoolCountBounded(t *testing.T) {
	col := randomCollection(t, 2, 37)
	e := engineWithCollection(t, Options{}, col)
	for src := 0; src < maxEnginePools+8; src++ {
		if _, err := e.RunCollection(context.Background(), col.Name, analytics.BFS{Source: uint64(src)}, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.pools) > maxEnginePools {
		t.Fatalf("%d pools, cap %d", len(e.pools), maxEnginePools)
	}
}

// TestEnginePoolLRUEviction pins the eviction *order* at the pool-map cap:
// the least-recently-acquired parameterization goes, not an arbitrary map
// entry. Pools are created without running (runnerPool alone registers the
// key), so the test exercises pure map policy.
func TestEnginePoolLRUEviction(t *testing.T) {
	e, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < maxEnginePools; src++ {
		e.runnerPool(analytics.BFS{Source: uint64(src)}, 1, 1)
	}
	if len(e.pools) != maxEnginePools {
		t.Fatalf("%d pools, want the cap %d", len(e.pools), maxEnginePools)
	}
	// Re-acquire Source:0, making Source:1 the coldest entry.
	e.runnerPool(analytics.BFS{Source: 0}, 1, 1)
	// The next new key must evict Source:1 and keep everything else.
	e.runnerPool(analytics.BFS{Source: uint64(maxEnginePools)}, 1, 1)
	if len(e.pools) != maxEnginePools {
		t.Fatalf("%d pools after eviction, want %d", len(e.pools), maxEnginePools)
	}
	evicted := poolKey{name: "bfs", ident: compIdentity(analytics.BFS{Source: 1}), workers: 1}
	if _, ok := e.pools[evicted]; ok {
		t.Fatal("LRU kept the coldest pool")
	}
	for _, src := range []uint64{0, 2, uint64(maxEnginePools)} {
		key := poolKey{name: "bfs", ident: compIdentity(analytics.BFS{Source: src}), workers: 1}
		if _, ok := e.pools[key]; !ok {
			t.Fatalf("LRU evicted a warmer pool (Source:%d)", src)
		}
	}
}

// TestEngineCloseAndEvict checks the pool lifecycle teardown paths.
func TestEngineCloseAndEvict(t *testing.T) {
	col := randomCollection(t, 3, 13)
	e := engineWithCollection(t, Options{}, col)
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.BFS{Source: 1}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(e.pools) != 2 {
		t.Fatalf("%d pools", len(e.pools))
	}
	e.EvictPools("wcc")
	if len(e.pools) != 1 {
		t.Fatalf("%d pools after evicting wcc", len(e.pools))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(e.pools) != 0 {
		t.Fatalf("%d pools after Close", len(e.pools))
	}
	// The engine stays usable: the next run rebuilds its pool.
	if _, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(e.pools) != 1 {
		t.Fatalf("%d pools after post-Close run", len(e.pools))
	}
}
