package tenant

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/obs"
	"graphsurge/internal/splitting"
)

// testEngine builds an engine holding a temporal graph named g and a k-view
// collection named cc over it, with fixed per-view thresholds (ts < 5*(i+1))
// so collections of different lengths share byte-identical stream prefixes —
// the property suffix replay keys on.
func testEngine(t *testing.T, k int) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 120, Edges: 1200, Days: 100, Seed: 7})
	g.Name = "g"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), collectionStmt("cc", k)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func collectionStmt(name string, k int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "create view collection %s on g ", name)
	for i := 0; i < k; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "[%s_v%d: ts < %d]", name, i, 5*(i+1))
	}
	return sb.String()
}

func runReq(collection string, opts core.RunOptions) *core.RunRequest {
	return &core.RunRequest{
		Collection: collection,
		Algorithm:  analytics.Spec{Algorithm: "wcc"},
		Options:    opts,
	}
}

func mustRun(t *testing.T, m *Middleware, tenant string, req *core.RunRequest) *core.RunResult {
	t.Helper()
	resp, err := m.Do(context.Background(), tenant, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.(*core.RunResult)
}

// TestHerdSingleFlight pins the acceptance criterion: 8 identical
// concurrent run requests execute the computation exactly once — one leader
// runs, 7 followers coalesce onto its flight — and every caller gets the
// identical result. The leader's first segment blocks until all followers
// have joined, so the coalescing is forced, not a lucky interleaving.
func TestHerdSingleFlight(t *testing.T) {
	e := testEngine(t, 6)
	m := New(e, Options{CacheEntries: 16})

	const herd = 8
	startRuns := obs.M.RunsStarted.Value()
	startDedup := obs.M.CacheDedup.Value()

	opts := core.RunOptions{Mode: core.Scratch, OnSegment: func(core.SegmentStats) {
		// Hold the leader's execution open until every follower has joined
		// the flight (each increments the dedup counter before waiting).
		deadline := time.Now().Add(10 * time.Second)
		for obs.M.CacheDedup.Value()-startDedup < herd-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}}

	var wg sync.WaitGroup
	results := make([]*core.RunResult, herd)
	for i := 0; i < herd; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := m.Do(context.Background(), "", runReq("cc", opts))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = resp.(*core.RunResult)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if d := obs.M.RunsStarted.Value() - startRuns; d != 1 {
		t.Fatalf("herd of %d executed %d runs, want exactly 1", herd, d)
	}
	if d := obs.M.CacheDedup.Value() - startDedup; d != herd-1 {
		t.Fatalf("dedup joins = %d, want %d", d, herd-1)
	}
	var miss, dedup int
	for i, r := range results {
		switch r.CacheStatus {
		case "miss":
			miss++
		case "dedup":
			dedup++
		default:
			t.Fatalf("result %d: cache status %q", i, r.CacheStatus)
		}
		if r.RunID != results[0].RunID {
			t.Fatalf("result %d: RunID %q != leader %q — a second execution happened", i, r.RunID, results[0].RunID)
		}
		if !reflect.DeepEqual(r.FinalResults(), results[0].FinalResults()) {
			t.Fatalf("result %d differs from the leader's", i)
		}
	}
	if miss != 1 || dedup != herd-1 {
		t.Fatalf("statuses: %d miss + %d dedup, want 1 + %d", miss, dedup, herd-1)
	}

	// Leak assertions: no admission slot held, no flight left registered,
	// and every pool replica back idle.
	if r, q := m.adm.snapshot(DefaultTenant); r != 0 || q != 0 {
		t.Fatalf("admission state leaked: running=%d queued=%d", r, q)
	}
	m.mu.Lock()
	inflight := len(m.flights)
	m.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d flights leaked", inflight)
	}
	for _, ps := range e.PoolStats() {
		if ps.Live != 0 {
			t.Fatalf("pool %s: %d replicas still live", ps.Ident, ps.Live)
		}
	}

	// And the herd warmed the cache: a 9th identical request is a pure hit.
	if r := mustRun(t, m, "", runReq("cc", core.RunOptions{Mode: core.Scratch})); r.CacheStatus != "hit" {
		t.Fatalf("post-herd request: cache status %q, want hit", r.CacheStatus)
	}
}

// TestMutationInvalidation pins fail-closed invalidation: a cached result
// is never served after a mutation bumps the graph version, and the
// re-executed result matches an uncached run over the mutated graph.
// Run with -race: the middleware's snapshot path reads difference streams
// the mutation path edits in place, under the engine barrier.
func TestMutationInvalidation(t *testing.T) {
	e := testEngine(t, 4)
	m := New(e, Options{CacheEntries: 16, CacheReplicas: 4})

	first := mustRun(t, m, "", runReq("cc", core.RunOptions{}))
	if first.CacheStatus != "miss" {
		t.Fatalf("first run: cache status %q", first.CacheStatus)
	}
	if r := mustRun(t, m, "", runReq("cc", core.RunOptions{})); r.CacheStatus != "hit" {
		t.Fatalf("pre-mutation rerun: cache status %q, want hit", r.CacheStatus)
	}

	// Mutate through the middleware, concurrently with a stream of cached
	// runs — the race detector checks the snapshot/mutation exclusion, and
	// the replica path's (acquire/extend against the mutation's queueDelta).
	// The stream is diff-only like the runs asserted on below but runs bfs,
	// so it shares no cache key with them: whatever it stores after the
	// mutation commits cannot turn the post-mutation wcc run into a hit.
	// (That the purge empties the cache is pinned without concurrency in
	// TestReplayAfterMutation.)
	stream := runReq("cc", core.RunOptions{})
	stream.Algorithm = analytics.Spec{Algorithm: "bfs"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Do(context.Background(), "", stream); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	resp, err := m.Do(context.Background(), "", &core.MutateRequest{
		Graph: "g",
		Inserts: []core.EdgeChange{
			{Src: 0, Dst: 1, Props: map[string]any{"ts": 2, "duration": 3}},
			{Src: 1, Dst: 2, Props: map[string]any{"ts": 3, "duration": 3}},
		},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	applied := resp.(*core.MutationApplied)
	if applied.Version == 0 {
		t.Fatal("mutation did not bump the graph version")
	}

	after := mustRun(t, m, "", runReq("cc", core.RunOptions{}))
	if after.CacheStatus == "hit" || after.CacheStatus == "dedup" {
		t.Fatalf("post-mutation run served from cache (%s) — stale", after.CacheStatus)
	}
	// The re-execution matches an uncached run over the mutated catalog.
	direct, err := e.NewSession().Do(context.Background(), runReq("cc", core.RunOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.FinalResults(), direct.(*core.RunResult).FinalResults()) {
		t.Fatal("post-mutation cached-path result differs from a direct run")
	}
}

// TestKeyEquivalence pins the cache-key normalization bugfix: the
// observability hook (OnSegment) and defaulted Workers / Parallelism never
// fragment the cache, while semantic fields (Mode, WeightProp, algorithm)
// always split it.
func TestKeyEquivalence(t *testing.T) {
	base := optionsKey(core.RunOptions{})
	same := []core.RunOptions{
		{OnSegment: func(core.SegmentStats) {}},
		{Workers: 1},
		{Parallelism: 1},
		{Workers: 1, Parallelism: 1, OnSegment: func(core.SegmentStats) {}},
	}
	for i, o := range same {
		if k := optionsKey(o); k != base {
			t.Fatalf("variant %d fragments the key: %q != %q", i, k, base)
		}
	}
	diff := []core.RunOptions{
		{Mode: core.Scratch},
		{Workers: 2},
		{Parallelism: 2},
		{WeightProp: "ts"},
		{Incremental: true},
		{BatchSize: 5},
		{Schedule: splitting.LPT},
	}
	for i, o := range diff {
		if k := optionsKey(o); k == base {
			t.Fatalf("variant %d (%+v) should produce a distinct key", i, o)
		}
	}

	// End to end: a run with a progress hook and a bare rerun share an entry.
	e := testEngine(t, 4)
	m := New(e, Options{CacheEntries: 16})
	segs := 0
	mustRun(t, m, "", runReq("cc", core.RunOptions{OnSegment: func(core.SegmentStats) { segs++ }}))
	if segs == 0 {
		t.Fatal("OnSegment never fired on the executing run")
	}
	if r := mustRun(t, m, "", runReq("cc", core.RunOptions{})); r.CacheStatus != "hit" {
		t.Fatalf("hook-free rerun: cache status %q, want hit — OnSegment fragmented the key", r.CacheStatus)
	}
}

// TestSuffixReplay pins the differential suffix replay path: a DiffOnly run
// builds a warm replica; a run over a longer collection sharing the stream
// prefix steps only the suffix, reports CachedPrefix, and returns exactly
// what an uncached run over the full collection returns.
func TestSuffixReplay(t *testing.T) {
	e := testEngine(t, 5)
	m := New(e, Options{CacheEntries: 16, CacheReplicas: 4})

	first := mustRun(t, m, "", runReq("cc", core.RunOptions{Mode: core.DiffOnly}))
	if first.CacheStatus != "miss" {
		t.Fatalf("first run: cache status %q", first.CacheStatus)
	}

	// A sibling collection extending cc's five views by two more, under a
	// different collection name — prefix matching is by stream content, not
	// by collection name. Defining it is a catalog mutation that purges the
	// result cache fail-closed; the engine's replica for cc is untouched, so
	// the re-run executes again but steps nothing.
	if _, err := m.Do(context.Background(), "", &core.StatementsRequest{Src: ccExtended(7)}); err != nil {
		t.Fatal(err)
	}
	warm := mustRun(t, m, "", runReq("cc", core.RunOptions{Mode: core.DiffOnly}))
	if warm.CacheStatus != "replay" || len(warm.Stats) != 0 {
		t.Fatalf("post-redefinition run on cc: cache status %q stepping %d views, want a zero-view replay", warm.CacheStatus, len(warm.Stats))
	}
	if !reflect.DeepEqual(warm.FinalResults(), first.FinalResults()) {
		t.Fatal("zero-view replay result differs from the executed run")
	}

	replays := obs.M.CacheReplays.Value()
	ext := mustRun(t, m, "", runReq("cc_ext", core.RunOptions{Mode: core.DiffOnly}))
	if ext.CacheStatus != "replay" {
		t.Fatalf("extended run: cache status %q, want replay", ext.CacheStatus)
	}
	if ext.CachedPrefix != 5 {
		t.Fatalf("CachedPrefix = %d, want 5", ext.CachedPrefix)
	}
	if len(ext.Stats) != 2 {
		t.Fatalf("replay stepped %d views, want the 2-view suffix", len(ext.Stats))
	}
	if obs.M.CacheReplays.Value() != replays+1 {
		t.Fatal("replay counter did not increment")
	}

	direct, err := e.NewSession().Do(context.Background(), runReq("cc_ext", core.RunOptions{Mode: core.DiffOnly}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ext.FinalResults(), direct.(*core.RunResult).FinalResults()) {
		t.Fatal("suffix-replay result differs from a full run")
	}

	// Second identical request: served from the exact-hit cache, replica
	// untouched.
	if r := mustRun(t, m, "", runReq("cc_ext", core.RunOptions{Mode: core.DiffOnly})); r.CacheStatus != "hit" {
		t.Fatalf("rerun: cache status %q, want hit", r.CacheStatus)
	}
}

// TestReplayAfterMutation pins what only an engine-owned replica can do: the
// serving path's warm replica survives a mutation. The re-run after it feeds
// the queued delta instead of rebuilding, a sibling collection is answered
// warm or cold but never wrong, and with replay disabled the same traffic is
// all misses.
func TestReplayAfterMutation(t *testing.T) {
	e := testEngine(t, 5)
	m := New(e, Options{CacheEntries: 16, CacheReplicas: 4})
	if _, err := m.Do(context.Background(), "", &core.StatementsRequest{Src: ccExtended(7)}); err != nil {
		t.Fatal(err)
	}
	diff := core.RunOptions{Mode: core.DiffOnly}
	direct := func(collection string) *core.RunResult {
		t.Helper()
		resp, err := e.NewSession().Do(context.Background(), runReq(collection, core.RunOptions{Mode: core.Scratch}))
		if err != nil {
			t.Fatal(err)
		}
		return resp.(*core.RunResult)
	}
	mutate := func(m *Middleware) {
		t.Helper()
		if _, err := m.Do(context.Background(), "", &core.MutateRequest{
			Graph:   "g",
			Inserts: []core.EdgeChange{{Src: 0, Dst: 1, Props: map[string]any{"ts": 2, "duration": 3}}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	cold := mustRun(t, m, "", runReq("cc", diff))
	if cold.CacheStatus != "miss" || cold.Incremental {
		t.Fatalf("first run: cache status %q incremental=%v, want a cold miss", cold.CacheStatus, cold.Incremental)
	}
	mutate(m)
	if n := len(m.cache.entries); n != 0 {
		t.Fatalf("cache holds %d entries after a mutation, want 0", n)
	}
	after := mustRun(t, m, "", runReq("cc", diff))
	if after.CacheStatus != "replay" || !after.Incremental || len(after.Stats) != 1 {
		t.Fatalf("post-mutation run: cache status %q incremental=%v stepping %d, want a one-delta replay",
			after.CacheStatus, after.Incremental, len(after.Stats))
	}
	if after.MaxWork() >= cold.MaxWork() {
		t.Fatalf("post-mutation work %d is not below the cold run's %d", after.MaxWork(), cold.MaxWork())
	}
	if !reflect.DeepEqual(after.FinalResults(), direct("cc").FinalResults()) {
		t.Fatal("post-mutation replay differs from a direct scratch run")
	}

	mutate(m)
	sib := mustRun(t, m, "", runReq("cc_ext", diff))
	if sib.CacheStatus != "replay" && sib.CacheStatus != "miss" {
		t.Fatalf("sibling after a mutation: cache status %q", sib.CacheStatus)
	}
	if !reflect.DeepEqual(sib.FinalResults(), direct("cc_ext").FinalResults()) {
		t.Fatalf("sibling after a mutation (%s) differs from a direct scratch run", sib.CacheStatus)
	}

	off := New(e, Options{CacheEntries: 16})
	mustRun(t, off, "", runReq("cc", diff))
	mutate(off)
	if r := mustRun(t, off, "", runReq("cc", diff)); r.CacheStatus != "miss" || r.Incremental {
		t.Fatalf("replay disabled: cache status %q incremental=%v, want a plain miss", r.CacheStatus, r.Incremental)
	}
}

// ccExtended emits GVDL defining cc_ext: viewsTotal views over g whose
// view names and predicates extend collectionStmt("cc", ...)'s, so cc_ext's
// difference stream is byte-identical to cc's over the shared prefix — the
// property a replica's chained fingerprint detects.
func ccExtended(viewsTotal int) string {
	var sb strings.Builder
	sb.WriteString("create view collection cc_ext on g ")
	for i := 0; i < viewsTotal; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "[cc_v%d: ts < %d]", i, 5*(i+1))
	}
	return sb.String()
}

// TestQuotaOnCachedPath pins that rate limiting applies before the cache:
// a drained bucket rejects even requests that would have been hits.
func TestQuotaOnCachedPath(t *testing.T) {
	e := testEngine(t, 3)
	m := New(e, Options{CacheEntries: 16, Limits: Limits{RatePerSec: 0.001, Burst: 2}})
	mustRun(t, m, "", runReq("cc", core.RunOptions{}))
	mustRun(t, m, "", runReq("cc", core.RunOptions{})) // hit, spends the 2nd token
	if _, err := m.Do(context.Background(), "", runReq("cc", core.RunOptions{})); err == nil {
		t.Fatal("drained bucket admitted a cached request")
	}
}
