package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
)

// These tests pin the one-artifact rule: `create view` produces a collection
// of one view — one catalog, one file format, one maintenance path — so a
// view is whatever a collection is, and the places that need exactly one view
// fail closed on anything else.

// newDiskEngine opens an engine on dir and registers a small temporal graph
// under the given name.
func newDiskEngine(t *testing.T, dir, graphName string, workers int) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Workers: workers, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 40, Edges: 200, Days: 10, Seed: 7})
	g.Name = graphName
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestViewRunsLikeACollection: a name created with `create view` answers a
// RunViewRequest (the independent from-scratch reference) and a RunRequest
// identically, in every execution mode, and keeps doing so across mutation
// batches that delete member edges and across reopening the engine on the same
// data directory — where the view and its parent come back without an EBM and
// maintain through the stream walk. Views over views ride along: their
// membership is checked against brute-force predicate evaluation.
func TestViewRunsLikeACollection(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	open := func() *Engine {
		e, err := NewEngine(Options{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := open()
	seed := datagen.Temporal(datagen.TemporalConfig{Nodes: 120, Edges: 900, Days: 20, Seed: 9})
	seed.Name = "dyn"
	if err := e.AddGraph(seed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(ctx, `create view mid on dyn edges where ts < 12
create view mid-short on mid edges where duration <= 30
create view collection over on mid [a: duration <= 10], [b: duration <= 40]`); err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name string
		opts RunOptions
	}{
		{"scratch", RunOptions{Mode: Scratch}},
		{"diff", RunOptions{Mode: DiffOnly}},
		{"incremental", RunOptions{Incremental: true}},
	}
	algos := []analytics.Spec{{Algorithm: "wcc"}, {Algorithm: "bfs", Source: 0}}
	views := []struct {
		name   string
		member func(ts, dur int64) bool
	}{
		{"mid", func(ts, _ int64) bool { return ts < 12 }},
		{"mid-short", func(ts, dur int64) bool { return ts < 12 && dur <= 30 }},
	}
	// warm: the engine holds replicas that finished on each view before the
	// last mutation, so incremental runs must feed its deltas, not rebuild.
	check := func(stage string, e *Engine, warm bool) {
		t.Helper()
		g, err := e.Graph("dyn")
		if err != nil {
			t.Fatal(err)
		}
		tsCol, _ := g.EdgeProps.ColumnIndex("ts")
		durCol, _ := g.EdgeProps.ColumnIndex("duration")
		sess := e.NewSession()
		for _, v := range views {
			var want []uint32
			for i := 0; i < g.NumEdges(); i++ {
				if g.EdgeAlive(i) && v.member(g.EdgeProps.Cols[tsCol].Ints[i], g.EdgeProps.Cols[durCol].Ints[i]) {
					want = append(want, uint32(i))
				}
			}
			col := mustView(t, e, v.name)
			if col.Version != g.Version || !reflect.DeepEqual(col.Stream.Adds[0], want) {
				t.Fatalf("%s: view %s at version %d holds %d edges; graph at %d, predicate holds on %d",
					stage, v.name, col.Version, len(col.Stream.Adds[0]), g.Version, len(want))
			}
			for _, spec := range algos {
				resp, err := sess.Do(ctx, &RunViewRequest{View: v.name, Algorithm: spec})
				if err != nil {
					t.Fatalf("%s: runView %s %s: %v", stage, v.name, spec.Algorithm, err)
				}
				ref := resp.(*ViewRunResult)
				if ref.Edges != len(want) || len(ref.Results) == 0 {
					t.Fatalf("%s: runView %s: %d edges, %d results", stage, v.name, ref.Edges, len(ref.Results))
				}
				for _, m := range modes {
					resp, err := sess.Do(ctx, &RunRequest{Collection: v.name, Algorithm: spec, Options: m.opts})
					if err != nil {
						t.Fatalf("%s: run %s %s %s: %v", stage, v.name, spec.Algorithm, m.name, err)
					}
					res := resp.(*RunResult)
					if m.opts.Incremental && res.Incremental != warm {
						t.Fatalf("%s: incremental %s over %s: warm replica reused = %v, want %v",
							stage, spec.Algorithm, v.name, res.Incremental, warm)
					}
					if got := res.FinalResults(); !reflect.DeepEqual(got, ref.Results) {
						t.Fatalf("%s: %s over %s in %s mode differs from the view run (%d vs %d records)",
							stage, spec.Algorithm, v.name, m.name, len(got), len(ref.Results))
					}
				}
			}
		}
		// The collection declared over the view stays inside it.
		over, _ := e.Collection("over")
		mid := mustView(t, e, "mid").Members()
		for pos, members := range streamMembership(over) {
			bound := []int64{10, 40}[over.Order[pos]]
			for i := 0; i < g.NumEdges(); i++ {
				want := mid.Get(i) && g.EdgeProps.Cols[durCol].Ints[i] <= bound
				if members[uint32(i)] != want {
					t.Fatalf("%s: collection over view, position %d edge %d membership %v, want %v", stage, pos, i, !want, want)
				}
			}
		}
	}
	// mutate deletes three member edges of the innermost view (so of every
	// artifact above it) and inserts a member, a parent-only member and a
	// non-member.
	mutate := func(e *Engine) {
		t.Helper()
		g, _ := e.Graph("dyn")
		req := &MutateRequest{Graph: "dyn", Inserts: []EdgeChange{
			{Src: 1, Dst: 2, Props: map[string]any{"ts": 3, "duration": 5}},
			{Src: 2, Dst: 3, Props: map[string]any{"ts": 4, "duration": 50}},
			{Src: 3, Dst: 4, Props: map[string]any{"ts": 15, "duration": 5}},
		}}
		seen := map[[2]uint64]bool{}
		for _, idx := range mustView(t, e, "mid-short").Stream.Adds[0] {
			pair := [2]uint64{g.Srcs[idx], g.Dsts[idx]}
			if len(req.Deletes) < 3 && !seen[pair] {
				seen[pair] = true
				req.Deletes = append(req.Deletes, EdgeChange{Src: pair[0], Dst: pair[1]})
			}
		}
		resp, err := e.NewSession().Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if ma := resp.(*MutationApplied); ma.Maintained != 3 || ma.Deleted < 3 {
			t.Fatalf("mutation %+v: want 3 maintained artifacts, at least 3 deleted edges", ma)
		}
	}

	check("created", e, false)
	mutate(e)
	check("mutated", e, true)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = open()
	check("reopened", e, false)
	if mid := mustView(t, e, "mid"); mid.EBM == nil {
		t.Fatal("a view loaded from disk has no EBM: the next batch cannot read its old rows")
	}
	mutate(e)
	check("reopened and mutated", e, true)
	// One file per artifact, all in the one format.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name(), "dyn.") {
			files = append(files, ent.Name())
		}
	}
	if want := []string{"mid-short.collection.gob", "mid.collection.gob", "over.collection.gob"}; !reflect.DeepEqual(files, want) {
		t.Fatalf("view store holds %v, want %v", files, want)
	}
}

// TestSingleViewTargetsFailClosed: the two places a name must denote exactly
// one view — an "on" target and a RunViewRequest — refuse a multi-view
// collection with ErrNotView, and a leftover file of the retired single-view
// format is a load error naming the remedy, never absence.
func TestSingleViewTargetsFailClosed(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := newDiskEngine(t, dir, "sg", 1)
	if _, err := e.ExecuteContext(ctx, "create view collection multi on sg [a: ts < 3], [b: ts < 6]"); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(dir+`/old.view.gob`, []byte("whatever it held")); err != nil {
		t.Fatal(err)
	}
	wcc := analytics.Spec{Algorithm: "wcc"}
	sess := e.NewSession()

	for _, src := range []string{
		"create view v on multi edges where duration <= 10",
		"create view collection c on multi [a: duration <= 10]",
	} {
		if _, err := e.ExecuteContext(ctx, src); !errors.Is(err, ErrNotView) {
			t.Fatalf("%q: %v, want ErrNotView", src, err)
		}
	}
	if _, err := sess.Do(ctx, &RunViewRequest{View: "multi", Algorithm: wcc}); !errors.Is(err, ErrNotView) {
		t.Fatalf("runView on a multi-view collection: %v, want ErrNotView", err)
	}
	// A graph of the same name still wins an "on" clause, as it always has.
	if _, err := e.ExecuteContext(ctx, "create view collection sg on sg [a: ts < 3], [b: ts < 6]\ncreate view w on sg edges where ts < 3"); err != nil {
		t.Fatalf("graph shadowed by a same-named collection: %v", err)
	}

	legacy := func(what string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "re-create the view") {
			t.Fatalf("%s with a leftover legacy view file: %v", what, err)
		}
	}
	_, err := e.LookupCollection("old")
	legacy("lookup", err)
	_, err = sess.Do(ctx, &RunViewRequest{View: "old", Algorithm: wcc})
	legacy("runView", err)
	_, err = sess.Do(ctx, &RunRequest{Collection: "old", Algorithm: wcc})
	legacy("run", err)
	_, err = e.ExecuteContext(ctx, "create view child on old edges where ts < 3")
	legacy("create view on", err)
	// Re-creating the view is the remedy.
	if _, err := e.ExecuteContext(ctx, "create view old on sg edges where ts < 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(ctx, &RunViewRequest{View: "old", Algorithm: wcc}); err != nil {
		t.Fatal(err)
	}
}

// TestCreatePersistFailureLeavesNoPhantom: a GVDL create whose artifact
// cannot be persisted fails without publishing it — the statement's caller was
// told it failed, so nothing may serve runs under the name and then vanish on
// restart. A directory squatting on the artifact's file makes the save fail.
func TestCreatePersistFailureLeavesNoPhantom(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"v", "create view v on pg edges where ts < 5"},
		{"c", "create view collection c on pg [a: ts < 3], [b: ts < 6]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := newDiskEngine(t, dir, "pg", 1)
			squat := filepath.Join(dir, tc.name+".collection.gob")
			if err := os.Mkdir(squat, 0o755); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ExecuteContext(context.Background(), tc.src); err == nil {
				t.Fatal("statement succeeded though its artifact could not be persisted")
			}
			if err := os.Remove(squat); err != nil {
				t.Fatal(err)
			}
			if _, err := e.LookupCollection(tc.name); !errors.Is(err, ErrNotFound) {
				t.Fatalf("phantom artifact after a failed persist: %v", err)
			}
		})
	}
}

// TestRunViewRequestDefaultWorkers: Workers == 0 means the engine's default,
// as it does for RunRequest — read off the dataflow's per-worker counters.
func TestRunViewRequestDefaultWorkers(t *testing.T) {
	e := newDiskEngine(t, "", "wg", 3)
	ctx := context.Background()
	if _, err := e.ExecuteContext(ctx, "create view v on wg edges where ts < 5"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ asked, want int }{{0, 3}, {2, 2}} {
		resp, err := e.NewSession().Do(ctx, &RunViewRequest{View: "v", Algorithm: analytics.Spec{Algorithm: "wcc"}, Workers: tc.asked})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(resp.(*ViewRunResult).work); got != tc.want {
			t.Fatalf("Workers: %d ran on %d dataflow workers, want %d", tc.asked, got, tc.want)
		}
	}
}

// TestMutationRefusesBrokenParentChain: a view whose parent name no longer
// denotes a single view — re-created as a multi-view collection, or re-created
// over its own descendant so the chain loops — cannot be composed over that
// parent, so the whole mutation is refused before anything commits.
func TestMutationRefusesBrokenParentChain(t *testing.T) {
	for name, recreate := range map[string]string{
		"multi-view parent": "create view collection a on so [x: ts < 30], [y: ts < 60]",
		"cycle":             "create view a on b edges where ts < 30",
	} {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t)
			ctx := context.Background()
			if _, err := e.ExecuteContext(ctx, "create view a on so edges where ts < 50\ncreate view b on a edges where duration <= 10\n"+recreate); err != nil {
				t.Fatal(err)
			}
			g, _ := e.Graph("so")
			_, err := e.NewSession().Do(ctx, &MutateRequest{Graph: "so", Deletes: []EdgeChange{{Src: g.Srcs[0], Dst: g.Dsts[0]}}})
			if !errors.Is(err, ErrNotMaintainable) {
				t.Fatalf("err = %v, want ErrNotMaintainable", err)
			}
			if g.Version != 0 || !g.EdgeAlive(0) {
				t.Fatal("refused mutation changed the graph")
			}
		})
	}
}
