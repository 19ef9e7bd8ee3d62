package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// disjointCollection builds a k-view collection whose views are consecutive
// disjoint slices of the graph's edges: every diff replaces the whole view,
// so differential execution is maximally unprofitable and the adaptive
// optimizer reliably splits — the workload the split-heavy executor paths
// need.
func disjointCollection(t testing.TB, k, perView int) *view.Collection {
	t.Helper()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 400, Edges: k * perView, Days: 50, Seed: 19})
	g.Name = "dis"
	names := make([]string, k)
	adds := make([][]uint32, k)
	dels := make([][]uint32, k)
	for v := 0; v < k; v++ {
		names[v] = fmt.Sprintf("s%d", v)
		for e := v * perView; e < (v+1)*perView; e++ {
			adds[v] = append(adds[v], uint32(e))
			if v > 0 {
				dels[v] = append(dels[v], uint32(e-perView))
			}
		}
	}
	return view.NewCollection("dis-col", g, &view.DiffStream{Names: names, Adds: adds, Dels: dels})
}

// TestLPTDeterminism: LPT dispatch must change only scheduling. Results,
// per-view stats sizes and the MaxWork aggregate (deterministic with one
// dataflow worker) match FIFO exactly, at any parallelism.
func TestLPTDeterminism(t *testing.T) {
	col := skewedCollection(t, 8, 41)
	base, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Scratch, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{
			Mode: Scratch, Parallelism: par, Schedule: splitting.LPT,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxWork() != base.MaxWork() {
			t.Fatalf("p=%d: LPT MaxWork %d != FIFO %d", par, res.MaxWork(), base.MaxWork())
		}
		got, want := res.FinalResults(), base.FinalResults()
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d results, want %d", par, len(got), len(want))
		}
		for kv, d := range want {
			if got[kv] != d {
				t.Fatalf("p=%d: result %+v = %d, want %d", par, kv, got[kv], d)
			}
		}
		for i := range res.Stats {
			if res.Stats[i].ViewSize != base.Stats[i].ViewSize || res.Stats[i].Index != i {
				t.Fatalf("p=%d: stats[%d] corrupted under LPT: %+v", par, i, res.Stats[i])
			}
		}
		// Segment stats still tile the collection in order.
		next := 0
		for _, seg := range res.Segments {
			if seg.Start != next {
				t.Fatalf("p=%d: segments out of order: %+v", par, res.Segments)
			}
			next = seg.End
		}
	}
}

// skewedCollection builds a scratch-friendly collection with one view ~10x
// the rest, the shape where LPT beats FIFO dispatch.
func skewedCollection(t testing.TB, k int, seed int64) *view.Collection {
	t.Helper()
	small := 300
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 500, Edges: (k - 1 + 10) * small, Days: 50, Seed: seed})
	g.Name = "skew"
	names := make([]string, k)
	adds := make([][]uint32, k)
	dels := make([][]uint32, k)
	next := 0
	for v := 0; v < k; v++ {
		n := small
		if v == k-1 {
			n = 10 * small // the straggler view, last in collection order
		}
		names[v] = fmt.Sprintf("v%d", v)
		for e := next; e < next+n; e++ {
			adds[v] = append(adds[v], uint32(e))
		}
		for _, prev := range adds[v1(v)] {
			if v > 0 {
				dels[v] = append(dels[v], prev)
			}
		}
		next += n
	}
	return view.NewCollection("skew-col", g, &view.DiffStream{Names: names, Adds: adds, Dels: dels})
}

func v1(v int) int {
	if v == 0 {
		return 0
	}
	return v - 1
}

// expandingCollection builds a k-view collection of growing windows: view 0
// holds base edges and every later view adds step more, so each diff is a
// small fraction of its view and differential execution reliably pays.
func expandingCollection(t testing.TB, k, base, step int) *view.Collection {
	t.Helper()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 400, Edges: base + (k-1)*step, Days: 50, Seed: 19})
	g.Name = "exp"
	names := make([]string, k)
	adds := make([][]uint32, k)
	for v := 0; v < k; v++ {
		names[v] = fmt.Sprintf("e%d", v)
		lo, hi := base+(v-1)*step, base+v*step
		if v == 0 {
			lo, hi = 0, base
		}
		for e := lo; e < hi; e++ {
			adds[v] = append(adds[v], uint32(e))
		}
	}
	return view.NewCollection("exp-col", g, &view.DiffStream{Names: names, Adds: adds, Dels: make([][]uint32, k)})
}

// TestParallelAdaptiveSplits: the parallel adaptive planner decides from
// observed costs as the inline one does — at the default ℓ as at a small
// one — so on a collection where differential execution never pays it
// splits at every parallelism, and its results equal Parallelism 1's.
func TestParallelAdaptiveSplits(t *testing.T) {
	col := disjointCollection(t, 12, 400)
	for _, batch := range []int{0, 2} {
		opts := RunOptions{Mode: Adaptive, Parallelism: 1, BatchSize: batch}
		base, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4} {
			opts.Parallelism = par
			res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Splits == 0 {
				t.Fatalf("ℓ=%d p=%d: no split on a collection differential execution never pays for (p=1: %d)", batch, par, base.Splits)
			}
			if !reflect.DeepEqual(res.FinalResults(), base.FinalResults()) {
				t.Fatalf("ℓ=%d p=%d: results differ from Parallelism 1", batch, par)
			}
		}
	}
}

// TestAdaptivePlanIsReplayable: the optimizer learns from dataflow work, so
// with one dataflow worker and Parallelism 1 an adaptive plan is a function
// of the collection — a cold private pool and an engine pool whose replicas
// an earlier run left warm choose every view's mode alike, at a small ℓ and
// the default one. (With more workers, scope partitioning draws a fresh hash
// seed per dataflow and work moves by a few percent.)
func TestAdaptivePlanIsReplayable(t *testing.T) {
	ctx := context.Background()
	for _, col := range []*view.Collection{disjointCollection(t, 12, 400), expandingCollection(t, 12, 3000, 150)} {
		e := engineWithCollection(t, Options{}, col)
		for _, batch := range []int{0, 2} {
			opts := RunOptions{Mode: Adaptive, Workers: 1, Parallelism: 1, BatchSize: batch}
			cold, err := RunCollectionContext(ctx, col, analytics.WCC{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				warm, err := e.RunCollection(ctx, col.Name, analytics.WCC{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range warm.Stats {
					if want := cold.Stats[i]; st.Mode != want.Mode || st.Work != want.Work {
						t.Fatalf("%s ℓ=%d run %d view %d: %v with %d work on the engine pool, %v with %d on a cold pool",
							col.Name, batch, run, i, st.Mode, st.Work, want.Mode, want.Work)
					}
				}
			}
		}
		if ps := e.PoolStats(); len(ps) != 1 || ps[0].Reused == 0 {
			t.Fatalf("%s: the engine runs recycled no replica: %+v", col.Name, ps)
		}
	}
}

// TestParallelAdaptiveKeepsDiffing: where differential execution pays, the
// parallel planner must not split either. Its first modeled decision, at
// view 2, covers the whole first batch of ℓ = 10 views; made from the
// scratch observation alone, before view 1's diff is observed, it would run
// all of them from scratch.
func TestParallelAdaptiveKeepsDiffing(t *testing.T) {
	col := expandingCollection(t, 12, 3000, 150)
	base, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Adaptive, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Splits != 0 {
		t.Fatalf("p=1 split %d times on expanding windows", base.Splits)
	}
	for _, par := range []int{2, 4} {
		res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Adaptive, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Splits != 0 {
			t.Fatalf("p=%d: %d splits on expanding windows", par, res.Splits)
		}
		if !reflect.DeepEqual(res.FinalResults(), base.FinalResults()) {
			t.Fatalf("p=%d: results differ from Parallelism 1", par)
		}
	}
}

// failComp injects pool-acquire failures: runner construction succeeds
// `builds` times and fails afterwards, and every built runner refuses to
// reset, so once the budget is spent an idle replica cannot be recycled
// either — Acquire deterministically errors from then on.
type failComp struct {
	builds *int32
}

func (failComp) Name() string                 { return "failing" }
func (c failComp) Build(b *analytics.Builder) { analytics.WCC{}.Build(b) }
func (c failComp) NewRunner(workers int) (analytics.Runner, error) {
	if atomic.AddInt32(c.builds, -1) < 0 {
		return nil, errors.New("injected build failure")
	}
	inst, err := analytics.NewInstance(c, workers)
	if err != nil {
		return nil, err
	}
	return failRunner{inst}, nil
}

// failRunner refuses to reset, forcing the pool down the rebuild path.
type failRunner struct {
	*analytics.Instance
}

func (failRunner) Reset(analytics.Computation) error { return errors.New("injected reset failure") }

// settleGoroutines waits for the goroutine count to drop back to the base,
// failing the test if executor goroutines leaked.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, base %d", runtime.NumGoroutine(), base)
}

// TestDispatchAcquireFailure: a mid-plan Acquire failure must surface the
// injected error, drain all dispatched segments, release every replica slot
// and leak no goroutine — in FIFO and LPT dispatch order.
func TestDispatchAcquireFailure(t *testing.T) {
	col := randomCollection(t, 6, 23)
	for _, policy := range []splitting.Policy{splitting.FIFO, splitting.LPT} {
		base := runtime.NumGoroutine()
		builds := int32(2)
		comp := failComp{builds: &builds}
		pool := analytics.NewPool(comp, 1, 2)
		_, err := runCollection(context.Background(), col, comp, RunOptions{
			Mode: Scratch, Workers: 1, Parallelism: 2, Schedule: policy,
		}, pool, remoteSlots{})
		if err == nil {
			t.Fatalf("%v: expected injected failure, got nil", policy)
		}
		if pool.Live() != 0 {
			t.Fatalf("%v: %d replica slots leaked", policy, pool.Live())
		}
		settleGoroutines(t, base)
	}
}

// TestRunAdaptiveAcquireFailure: an Acquire failure at an adaptive split
// exercises the fail drain — already-dispatched segments finish, the error
// surfaces, and neither slots nor goroutines leak. Both planners reach a
// split because every decision sees the observations of all views but at
// most the one in flight; the parallel one additionally drains async
// segments on the way out.
func TestRunAdaptiveAcquireFailure(t *testing.T) {
	col := disjointCollection(t, 8, 300)
	for _, par := range []int{1, 2} {
		name := fmt.Sprintf("p=%d", par)
		base := runtime.NumGoroutine()
		builds := int32(1)
		comp := failComp{builds: &builds}
		pool := analytics.NewPool(comp, 1, par)
		_, err := runCollection(context.Background(), col, comp, RunOptions{
			Mode: Adaptive, Workers: 1, Parallelism: par, BatchSize: 2,
		}, pool, remoteSlots{})
		if err == nil {
			t.Fatalf("%s: no error despite acquire failures at splits", name)
		}
		if pool.Live() != 0 {
			t.Fatalf("%s: %d replica slots leaked", name, pool.Live())
		}
		settleGoroutines(t, base)
	}
}

// TestConcurrentViewLoadSharesOneObject: concurrent disk-fallback misses on
// one view must converge on a single cached object (the double-checked cache
// fill), not clobber each other with distinct loads.
func TestConcurrentViewLoadSharesOneObject(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 50, Edges: 400, Days: 20, Seed: 3})
	g.Name = "cg"
	if err := e1.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ExecuteContext(context.Background(), "create view half on cg edges where ts < 10"); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const loaders = 8
	views := make([]*view.Collection, loaders)
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], _ = e2.Collection("half")
		}(i)
	}
	wg.Wait()
	for i, v := range views {
		if v == nil {
			t.Fatalf("loader %d got no view", i)
		}
		if v != views[0] {
			t.Fatalf("loader %d got a distinct object: cache fill clobbered", i)
		}
	}
}

// TestViewOverPersistedViewAfterRestart is the resolveTarget regression
// test: with a data directory, a view persisted by one engine must be a
// valid `create view ... on <view>` target in a fresh engine over the same
// directory — resolution goes through the disk fallback, not just the
// in-memory catalog.
func TestViewOverPersistedViewAfterRestart(t *testing.T) {
	dir := t.TempDir()
	e1, err := NewEngine(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 100, Edges: 800, Days: 40, Seed: 11})
	g.Name = "rg"
	if err := e1.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.ExecuteContext(context.Background(), "create view early on rg edges where ts < 20"); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh engine, same data directory, view only on disk.
	e2, err := NewEngine(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e2.ExecuteContext(context.Background(), "create view early-short on early edges where duration <= 10")
	if err != nil {
		t.Fatalf("view-over-view after restart: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("%d statements executed", len(out))
	}
	derived, base := mustView(t, e2, "early-short"), mustView(t, e2, "early")
	if base.EBM == nil {
		t.Fatal("a view loaded from disk has no EBM: it must be rebuilt from its edge list")
	}
	if n := len(derived.Stream.Adds[0]); n == 0 || n > len(base.Stream.Adds[0]) {
		t.Fatalf("derived view has %d edges, base %d", n, len(base.Stream.Adds[0]))
	}
	if derived.On != "early" {
		t.Fatalf("derived view records parent %q", derived.On)
	}
	members := base.Members()
	for _, idx := range derived.Stream.Adds[0] {
		if !members.Get(int(idx)) {
			t.Fatalf("derived view holds edge %d, which its parent does not", idx)
		}
	}
	// Collections over persisted views restart too.
	if _, err := e2.ExecuteContext(context.Background(), "create view collection cc on early [a: duration <= 5], [b: duration <= 30]"); err != nil {
		t.Fatalf("collection over persisted view after restart: %v", err)
	}
	// A name that is truly neither still says so.
	if _, err := e2.ExecuteContext(context.Background(), "create view x on nothing edges where ts < 5"); err == nil {
		t.Fatal("expected error for unknown target")
	}
}

// TestCorruptViewStoreErrorsAreDistinct pins the load-error satellite: a
// corrupt persisted view must surface the decode failure, not dissolve into
// "not found" — and resolveTarget must report it rather than claiming the
// name is neither a graph nor a view.
func TestCorruptViewStoreErrorsAreDistinct(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 40, Edges: 200, Days: 10, Seed: 7})
	g.Name = "sg"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(dir+"/broken.collection.gob", []byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}

	_, err = e.LookupCollection("broken")
	if err == nil {
		t.Fatal("corrupt view loaded")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt view reported as not-found: %v", err)
	}
	// Absence is still ErrNotFound.
	if _, err := e.LookupCollection("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing collection error: %v", err)
	}
	// resolveTarget surfaces the load failure instead of "neither a graph
	// nor a view".
	if _, err := e.ExecuteContext(context.Background(), "create view v on broken edges where ts < 5"); err == nil {
		t.Fatal("create view over corrupt target succeeded")
	} else if errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt target misreported: %v", err)
	}
	// A view run and a collection run report the distinct error too.
	if _, err := e.NewSession().Do(context.Background(), &RunViewRequest{View: "broken", Algorithm: analytics.Spec{Algorithm: "wcc"}}); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("RunViewRequest on corrupt view: %v", err)
	}
	if _, err := e.RunCollection(context.Background(), "broken", analytics.WCC{}, RunOptions{}); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("RunCollection on corrupt collection: %v", err)
	}
}

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// TestSlashyGraphNameStillResolves pins the review fix on LookupCollection's
// error classification: a *graph* whose name the view store refuses (path
// separators) must still resolve as a statement target on an engine with a
// data directory — an invalid view name means "no such view", never a load
// failure that aborts the graph-store fallback.
func TestSlashyGraphNameStillResolves(t *testing.T) {
	dir := t.TempDir()
	// The graph store persists to <name>.graph.gob, so the nested directory
	// must exist for a slashy graph name to register at all.
	if err := os.MkdirAll(dir+"/team", 0o755); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 30, Edges: 100, Days: 10, Seed: 5})
	g.Name = "team/graph"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	resolved, fv, err := e.resolveTarget("team/graph")
	if err != nil {
		t.Fatalf("slashy graph name no longer resolves: %v", err)
	}
	if fv != nil || resolved != g {
		t.Fatalf("resolved %v, %v", resolved, fv)
	}
	if _, err := e.LookupCollection("../escape"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("invalid view name not classified as absence: %v", err)
	}
}

// TestAddCollectionPersistFailureLeavesNoPhantom: a failed persist must not
// leave the collection registered in memory.
func TestAddCollectionPersistFailureLeavesNoPhantom(t *testing.T) {
	e, err := NewEngine(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	col := randomCollection(t, 2, 3)
	col.Name = "a/b" // the view store rejects it
	if err := e.AddCollection(col); err == nil {
		t.Fatal("AddCollection accepted an unpersistable name")
	}
	e.mu.RLock()
	_, registered := e.collections["a/b"]
	e.mu.RUnlock()
	if registered {
		t.Fatal("phantom collection registered despite persist failure")
	}
}
