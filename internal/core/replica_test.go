package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/obs"
	"graphsurge/internal/view"
)

// daysEngine is newTestEngine plus a four-view collection `days` and a
// six-view sibling `days_ext` whose first four views are the same names and
// predicates, so the sibling's stream extends days' byte for byte.
func daysEngine(t *testing.T) (*Engine, *view.Collection, *view.Collection) {
	t.Helper()
	e := newTestEngine(t)
	t.Cleanup(func() { e.Close() })
	const four = `[d1: ts < 25], [d2: ts < 50], [d3: ts < 75], [d4: ts < 90]`
	if _, err := e.ExecuteContext(context.Background(),
		"create view collection days on so "+four+"\n"+
			"create view collection days_ext on so "+four+", [d5: ts < 95], [d6: ts < 100]"); err != nil {
		t.Fatal(err)
	}
	days, _ := e.Collection("days")
	ext, _ := e.Collection("days_ext")
	return e, days, ext
}

// theReplica returns the engine's only replica.
func theReplica(t *testing.T, e *Engine) *replica {
	t.Helper()
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	if len(e.replicas) != 1 {
		t.Fatalf("engine holds %d replicas, want 1", len(e.replicas))
	}
	return e.replicas[0]
}

func mustRunOn(t *testing.T, e *Engine, ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions) *RunResult {
	t.Helper()
	res, err := e.RunOn(ctx, col, comp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameAsScratch fails unless res carries the final results of a from-scratch
// run over col as it stands now.
func sameAsScratch(t *testing.T, e *Engine, col *view.Collection, comp analytics.Computation, res *RunResult, what string) {
	t.Helper()
	want := mustRunOn(t, e, context.Background(), col, comp, RunOptions{Mode: Scratch})
	if !reflect.DeepEqual(res.FinalResults(), want.FinalResults()) {
		t.Fatalf("%s: results differ from a scratch run", what)
	}
}

// TestReplicaMatchesScratch pins the replica's correctness contract:
// absorbing a whole stream on a fresh replica yields exactly the final
// results a normal run produces, a second run over an unchanged collection
// steps nothing and still answers correctly, a sibling collection extending
// the absorbed prefix steps only its suffix, and Incremental/CachedPrefix
// report how much was skipped.
func TestReplicaMatchesScratch(t *testing.T) {
	e, days, ext := daysEngine(t)
	ctx := context.Background()
	comp := analytics.WCC{}
	inc := RunOptions{Incremental: true}

	cold := mustRunOn(t, e, ctx, days, comp, inc)
	if cold.Incremental || cold.CachedPrefix != 0 || len(cold.Stats) != 4 {
		t.Fatalf("cold run: incremental=%v prefix=%d stats=%d, want false, 0 and 4", cold.Incremental, cold.CachedPrefix, len(cold.Stats))
	}
	sameAsScratch(t, e, days, comp, cold, "cold run")
	if st := theReplica(t, e); st.pos != 4 || st.col != days {
		t.Fatalf("replica at pos %d on %v, want 4 on days", st.pos, st.col)
	}

	// Nothing new to step: a warm run over the same stream answers from
	// absorbed state, with an empty suffix.
	warm := mustRunOn(t, e, ctx, days, comp, inc)
	if !warm.Incremental || warm.CachedPrefix != 4 || len(warm.Stats) != 0 {
		t.Fatalf("warm run: incremental=%v prefix=%d stats=%d, want true, 4 and 0", warm.Incremental, warm.CachedPrefix, len(warm.Stats))
	}
	sameAsScratch(t, e, days, comp, warm, "warm run")

	// The sibling is matched by content, not by name.
	sib := mustRunOn(t, e, ctx, ext, comp, inc)
	if !sib.Incremental || sib.CachedPrefix != 4 || len(sib.Stats) != 2 || sib.Stats[0].Name != "d5" {
		t.Fatalf("sibling run: incremental=%v prefix=%d stats=%+v, want true, 4 and the d5, d6 suffix", sib.Incremental, sib.CachedPrefix, sib.Stats)
	}
	if sib.MaxWork() >= cold.MaxWork() {
		t.Fatalf("suffix work %d is not below the cold build's %d", sib.MaxWork(), cold.MaxWork())
	}
	sameAsScratch(t, e, ext, comp, sib, "sibling run")

	// Back on the shorter collection the replica has run past it and belongs
	// to the sibling: no prefix of days ends where it stands, so days builds
	// its own and the sibling keeps the one it took over.
	back := mustRunOn(t, e, ctx, days, comp, inc)
	if back.Incremental || len(back.Stats) != 4 {
		t.Fatalf("run behind the replica: incremental=%v stats=%d, want a cold build", back.Incremental, len(back.Stats))
	}
	sameAsScratch(t, e, days, comp, back, "rebuilt run")
	if again := mustRunOn(t, e, ctx, ext, comp, inc); !again.Incremental || len(again.Stats) != 0 || len(e.replicas) != 2 {
		t.Fatalf("sibling re-run: incremental=%v stats=%d over %d replicas, want its own warm replica beside days'",
			again.Incremental, len(again.Stats), len(e.replicas))
	}
}

// TestReplicaAfterMutation pins fail-closed staleness: after a mutation the
// collection the replica finished on is answered warm from the queued delta,
// a sibling is answered warm or cold, and both equal scratch.
func TestReplicaAfterMutation(t *testing.T) {
	e, days, ext := daysEngine(t)
	ctx := context.Background()
	comp := analytics.WCC{}
	inc := RunOptions{Incremental: true}
	cold := mustRunOn(t, e, ctx, days, comp, inc)

	mutate := func() {
		t.Helper()
		if _, err := e.NewSession().Do(ctx, &MutateRequest{
			Graph:   "so",
			Inserts: []EdgeChange{{Src: 0, Dst: 1, Props: map[string]any{"ts": 10, "duration": 5}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mutate()
	warm := mustRunOn(t, e, ctx, days, comp, inc)
	if !warm.Incremental || len(warm.Stats) != 1 || warm.Stats[0].Name != "Δv1" {
		t.Fatalf("post-mutation run: incremental=%v stats=%+v, want one delta step", warm.Incremental, warm.Stats)
	}
	if warm.MaxWork() >= cold.MaxWork() {
		t.Fatalf("delta work %d is not below the cold build's %d", warm.MaxWork(), cold.MaxWork())
	}
	sameAsScratch(t, e, days, comp, warm, "post-mutation run")

	// The delta-fed replica stands on days' maintained stream, which the
	// sibling's maintained stream extends.
	sib := mustRunOn(t, e, ctx, ext, comp, inc)
	sameAsScratch(t, e, ext, comp, sib, "sibling after a mutation")

	// The replica now belongs to the sibling, so days gets no delta: its next
	// run finds nothing that can prove its state and builds cold.
	mutate()
	stale := mustRunOn(t, e, ctx, days, comp, inc)
	if stale.Incremental {
		t.Fatal("a replica that missed a mutation was reused")
	}
	sameAsScratch(t, e, days, comp, stale, "run on a stale replica")

	// From here each collection has its own replica — the siblings and an
	// unrelated collection on the same key — and all are maintained at delta
	// cost through every further mutation.
	if _, err := e.ExecuteContext(ctx, "create view collection odd on so [o1: ts < 40], [o2: ts < 60]"); err != nil {
		t.Fatal(err)
	}
	odd, _ := e.Collection("odd")
	mustRunOn(t, e, ctx, ext, comp, inc)
	mustRunOn(t, e, ctx, odd, comp, inc)
	for round := 0; round < 3; round++ {
		mutate()
		for _, col := range []*view.Collection{days, ext, odd} {
			res := mustRunOn(t, e, ctx, col, comp, inc)
			if !res.Incremental || len(res.Stats) != 1 {
				t.Fatalf("round %d on %s: incremental=%v stepping %d, want one delta step", round, col.Name, res.Incremental, len(res.Stats))
			}
			sameAsScratch(t, e, col, comp, res, "round on "+col.Name)
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err call
// on — the replica checks Err once per step, so it cancels between steps.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestReplicaCancelResumes pins the single cancellation rule: a run canceled
// between two steps — stream views or queued deltas alike — leaves a replica
// that the next run resumes from the recorded position.
func TestReplicaCancelResumes(t *testing.T) {
	e, _, ext := daysEngine(t)
	comp := analytics.WCC{}
	inc := RunOptions{Incremental: true}

	// Three Err calls pass: the run's entry check and two view steps.
	_, err := e.RunOn(&cancelAfter{context.Background(), 3}, ext, comp, inc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v, want context.Canceled", err)
	}
	if st := theReplica(t, e); st.pos != 2 {
		t.Fatalf("replica at pos %d after a cancel between steps, want 2", st.pos)
	}
	res := mustRunOn(t, e, context.Background(), ext, comp, inc)
	if !res.Incremental || res.CachedPrefix != 2 || len(res.Stats) != 4 {
		t.Fatalf("resumed run: incremental=%v prefix=%d stats=%d, want true, 2 and 4", res.Incremental, res.CachedPrefix, len(res.Stats))
	}
	sameAsScratch(t, e, ext, comp, res, "resumed run")

	// Two queued deltas, canceled after the first.
	g, _ := e.Graph("so")
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2; i++ {
		if _, err := e.ApplyMutation("so", randomBatch(t, r, g, 5, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunOn(&cancelAfter{context.Background(), 2}, ext, comp, inc); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled delta run: %v, want context.Canceled", err)
	}
	if st := theReplica(t, e); len(st.pending) != 1 || st.version != 1 {
		t.Fatalf("replica holds %d deltas at version %d, want 1 at 1", len(st.pending), st.version)
	}
	res = mustRunOn(t, e, context.Background(), ext, comp, inc)
	if !res.Incremental || len(res.Stats) != 1 || res.Stats[0].Name != "Δv2" {
		t.Fatalf("resumed delta run: incremental=%v stats=%+v, want the one remaining delta", res.Incremental, res.Stats)
	}
	sameAsScratch(t, e, ext, comp, res, "resumed delta run")
}

// parkedWCC is WCC run by a parkRecorder.
type parkedWCC struct{ analytics.WCC }

func (parkedWCC) NewRunner(workers int) (analytics.Runner, error) {
	inst, err := analytics.NewInstance(analytics.WCC{}, workers)
	if err != nil {
		return nil, err
	}
	return &parkRecorder{Instance: inst}, nil
}

// parkRecorder is an Instance that records whether it was parked after its
// last step.
type parkRecorder struct {
	*analytics.Instance
	parked bool
}

func (r *parkRecorder) Step(adds, dels graph.Edges) time.Duration {
	r.parked = false
	return r.Instance.Step(adds, dels)
}

func (r *parkRecorder) Park() {
	r.parked = true
	r.Instance.Park()
}

// TestReplicaParksRunner pins that extend parks the replica's runner on the
// way out, after a whole run and after one canceled between steps, so an
// idle replica holds no exchange columns.
func TestReplicaParksRunner(t *testing.T) {
	e, _, ext := daysEngine(t)
	inc := RunOptions{Incremental: true}
	if _, err := e.RunOn(&cancelAfter{context.Background(), 3}, ext, parkedWCC{}, inc); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v, want context.Canceled", err)
	}
	st := theReplica(t, e)
	if rec := st.runner.(*parkRecorder); st.pos != 2 || !rec.parked {
		t.Fatalf("a run canceled at pos %d left its runner parked=%v, want parked at 2", st.pos, rec.parked)
	}
	mustRunOn(t, e, context.Background(), ext, parkedWCC{}, inc)
	if rec := st.runner.(*parkRecorder); st.pos != ext.Stream.NumViews() || !rec.parked {
		t.Fatalf("a whole run to pos %d left its runner parked=%v, want parked at %d", st.pos, rec.parked, ext.Stream.NumViews())
	}
}

// TestReplicaConcurrent races everything that touches the store — sibling
// runs taking replicas over from each other, mutations queueing deltas, a
// collection re-created under a live name — and requires the replicas that
// come out of it to still answer like scratch. Run with -race.
func TestReplicaConcurrent(t *testing.T) {
	e, _, _ := daysEngine(t)
	ctx := context.Background()
	comp := analytics.WCC{}
	var wg sync.WaitGroup
	for _, name := range []string{"days", "days_ext", "days", "days_ext"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				if _, err := e.RunCollection(ctx, name, comp, RunOptions{Incremental: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.NewSession().Do(ctx, &MutateRequest{
			Graph:   "so",
			Inserts: []EdgeChange{{Src: uint64(i), Dst: uint64(i + 1), Props: map[string]any{"ts": 10 * i, "duration": 5}}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecuteContext(ctx, "create view collection days on so [d1: ts < 25], [d2: ts < 50], [d3: ts < 75], [d4: ts < 90]"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for _, name := range []string{"days", "days_ext"} {
		col, _ := e.Collection(name)
		sameAsScratch(t, e, col, comp, mustRunOn(t, e, ctx, col, comp, RunOptions{Incremental: true}), "after the race on "+name)
	}
}

// TestReplicaGraphIdentity pins that a replica belongs to a graph object, not
// a graph name: a different graph loaded under the same name, whose
// collection has an index-identical stream, is never matched.
func TestReplicaGraphIdentity(t *testing.T) {
	e, days, _ := daysEngine(t)
	ctx := context.Background()
	comp := analytics.WCC{}
	mustRunOn(t, e, ctx, days, comp, RunOptions{Incremental: true})

	g2 := datagen.Temporal(datagen.TemporalConfig{Nodes: 200, Edges: 2000, Days: 100, Seed: 7})
	g2.Name = "so"
	if err := e.AddGraph(g2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(ctx, "create view collection again on so [d1: ts < 25], [d2: ts < 50], [d3: ts < 75], [d4: ts < 90]"); err != nil {
		t.Fatal(err)
	}
	again, _ := e.Collection("again")
	if again.Graph == days.Graph || !reflect.DeepEqual(again.Stream.ChainFingerprints(), days.Stream.ChainFingerprints()) {
		t.Fatal("test setup: want a different graph object with an identical stream")
	}
	res := mustRunOn(t, e, ctx, again, comp, RunOptions{Incremental: true})
	if res.Incremental {
		t.Fatal("a replica built on another graph object was reused")
	}
	sameAsScratch(t, e, again, comp, res, "run on the reloaded graph")
}

// TestReplicaBounds pins the store's two bounds: the LRU cap evicts the
// least recently run replica, and Close empties the store.
func TestReplicaBounds(t *testing.T) {
	e, days, _ := daysEngine(t)
	ctx := context.Background()
	inc := RunOptions{Incremental: true}
	for src := uint64(0); src <= maxReplicas; src++ {
		mustRunOn(t, e, ctx, days, analytics.BFS{Source: src}, inc)
	}
	if n := len(e.replicas); n != maxReplicas {
		t.Fatalf("engine holds %d replicas, want the bound %d", n, maxReplicas)
	}
	if res := mustRunOn(t, e, ctx, days, analytics.BFS{Source: maxReplicas}, inc); !res.Incremental {
		t.Fatal("the most recent replica was evicted")
	}
	if res := mustRunOn(t, e, ctx, days, analytics.BFS{Source: 0}, inc); res.Incremental {
		t.Fatal("the least recently run replica survived the bound")
	}
	e.Close()
	if n := len(e.replicas); n != 0 {
		t.Fatalf("Close left %d replicas", n)
	}
}

// TestReplicaQueuedDeltasBounded pins the delta bound: a replica that is run
// once and then sits through mutations is dropped once its queued deltas
// outgrow its collection's final view, instead of retaining every batch.
func TestReplicaQueuedDeltasBounded(t *testing.T) {
	e, g := incTestEngine(t)
	defer e.Close()
	col, _ := e.Collection("roll")
	ctx := context.Background()
	comp := analytics.WCC{}
	mustRunOn(t, e, ctx, col, comp, RunOptions{Incremental: true})

	// Balanced batches keep the final view's size steady while every batch
	// queues ~100 delta edges against its ~800.
	r := rand.New(rand.NewSource(23))
	for batches := 0; len(e.replicas) > 0; batches++ {
		if batches == 40 {
			t.Fatalf("replica still holds %d queued deltas after %d batches", len(theReplica(t, e).pending), batches)
		}
		if _, err := e.ApplyMutation("dyn", randomBatch(t, r, g, 50, 50)); err != nil {
			t.Fatal(err)
		}
	}
	res := mustRunOn(t, e, ctx, col, comp, RunOptions{Incremental: true})
	if res.Incremental {
		t.Fatal("run after the replica was dropped did not rebuild cold")
	}
	sameAsScratch(t, e, col, comp, res, "run after the replica was dropped")
}

// TestReplicaHandsOverRunner pins how a cold miss at the bound reuses a
// dataflow. With the store full of bfs and sssp replicas, a new bfs source
// evicts the least recently run bfs replica, not the older sssp one, takes
// its runner (reset, no NewRunner; graphsurge_incremental_recycled_total
// counts it) and answers like a fresh engine. A locked replica is passed
// over for the next bfs one. With no idle bfs replica left the new one drops
// the least recently run idle replica of any shape and builds, and the held
// replica stays; only when every replica is held does the least recently
// run one leave.
func TestReplicaHandsOverRunner(t *testing.T) {
	e, days, _ := daysEngine(t)
	ctx := context.Background()
	inc := RunOptions{Incremental: true}
	bfs := func(src uint64) analytics.Computation { return analytics.BFS{Source: src} }
	sssp := func(src uint64) analytics.Computation { return analytics.SSSP{Source: src} }
	find := func(comp analytics.Computation) *replica {
		for _, r := range e.replicas {
			if r.key.ident == compIdentity(comp) {
				return r
			}
		}
		return nil
	}
	// Oldest first: sssp(0), then bfs(1), bfs(2), sssp(3), bfs(4), ...
	for src := uint64(0); src < maxReplicas; src++ {
		comp := bfs(src)
		if src%3 == 0 {
			comp = sssp(src)
		}
		mustRunOn(t, e, ctx, days, comp, inc)
	}
	runner := find(bfs(1)).runner
	recycled := obs.M.IncrementalReuse.Value()
	res := mustRunOn(t, e, ctx, days, bfs(100), inc)
	if find(bfs(1)) != nil || find(sssp(0)) == nil {
		t.Fatal("the new bfs replica did not evict the least recently run bfs replica")
	}
	if got := find(bfs(100)); got.runner != runner || obs.M.IncrementalReuse.Value() != recycled+1 {
		t.Fatal("the new bfs replica did not take the evicted replica's runner")
	}
	fresh, _, _ := daysEngine(t)
	if want := mustRunOn(t, fresh, ctx, days, bfs(100), inc); !reflect.DeepEqual(res.FinalResults(), want.FinalResults()) {
		t.Fatal("a handed-over runner answers unlike a fresh engine")
	}

	// bfs(2) is the least recently run bfs replica now; a run holds it.
	held := find(bfs(2))
	held.mu.Lock()
	mustRunOn(t, e, ctx, days, bfs(101), inc)
	if find(bfs(2)) != held || find(bfs(4)) != nil {
		t.Fatal("a locked replica was evicted, or the next bfs replica was not")
	}
	held.mu.Unlock()

	// A store of sssp replicas and one bfs replica, which a run holds: a new
	// bfs source finds no idle replica of its shape, drops the least recently
	// run idle replica (sssp(0)) and builds; the held replica stays.
	e, days, _ = daysEngine(t)
	mustRunOn(t, e, ctx, days, bfs(1), inc)
	for src := uint64(0); len(e.replicas) < maxReplicas; src++ {
		mustRunOn(t, e, ctx, days, sssp(src), inc)
	}
	held = find(bfs(1))
	runner = held.runner
	var others []analytics.Runner
	for _, r := range e.replicas {
		others = append(others, r.runner)
	}
	recycled = obs.M.IncrementalReuse.Value()
	held.mu.Lock()
	res = mustRunOn(t, e, ctx, days, bfs(2), inc)
	held.mu.Unlock()
	if got := find(bfs(2)); obs.M.IncrementalReuse.Value() != recycled || slices.Contains(others, got.runner) {
		t.Fatal("a replica of another shape, or a held one, was handed over")
	}
	if find(bfs(1)) != held || held.runner != runner || find(sssp(0)) != nil || len(e.replicas) != maxReplicas {
		t.Fatal("the held replica was dropped, or the least recently run idle one was not")
	}
	sameAsScratch(t, e, days, bfs(2), res, "a bfs replica built beside sssp ones")

	// Runs hold every replica: the least recently run one, bfs(1), leaves.
	for _, r := range e.replicas {
		r.mu.Lock()
	}
	locked := slices.Clone(e.replicas)
	mustRunOn(t, e, ctx, days, bfs(3), inc)
	for _, r := range locked {
		r.mu.Unlock()
	}
	if find(bfs(1)) != nil || find(bfs(3)) == nil || len(e.replicas) != maxReplicas {
		t.Fatal("with every replica held, the least recently run one was not dropped")
	}
}
