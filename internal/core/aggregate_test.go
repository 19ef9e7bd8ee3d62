package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphsurge/internal/aggregate"
	"graphsurge/internal/datagen"
)

// These tests pin aggregate views as ordinary artifacts: resolved through
// the same target lookup as every other view, persisted as their statement,
// read through from disk, and maintained after every mutation of the graph
// their target resolves to.

// newSocialEngine opens an engine (on dir, when non-empty) holding a small
// social graph named tw with city/state/country node properties.
func newSocialEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Social(datagen.SocialConfig{Nodes: 150, Edges: 900, Locations: 8, Seed: 5})
	g.Name = "tw"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustAgg(t *testing.T, e *Engine, name string) *aggregate.View {
	t.Helper()
	av, err := e.AggView(name)
	if err != nil {
		t.Fatalf("aggregate view %s: %v", name, err)
	}
	return av
}

// sameAgg fails unless two aggregate views hold the same super-nodes and
// super-edges.
func sameAgg(t *testing.T, what string, got, want *aggregate.View) {
	t.Helper()
	if !reflect.DeepEqual(got.SuperNodes, want.SuperNodes) || !reflect.DeepEqual(got.SuperEdges, want.SuperEdges) {
		t.Fatalf("%s: %d super-nodes and %d super-edges, want %d and %d (or equal counts with different contents)",
			what, len(got.SuperNodes), len(got.SuperEdges), len(want.SuperNodes), len(want.SuperEdges))
	}
}

// TestAggregateViewPersistsAndMaintains: an aggregate view created on an
// engine with a data directory comes back from a reopened engine, is
// maintained by a mutation there like one created in-process, and matches a
// fresh create of the same statement afterwards — also after a further
// reopen that replays the mutation journal.
func TestAggregateViewPersistsAndMaintains(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	bodies := map[string]string{
		"cities": "nodes group by city aggregate n: count(*), s: sum(state) edges aggregate total-w: sum(w), lo: min(affinity), mean: avg(w)",
		"split":  "nodes group by [(city < 3), (state = 1 or country = 0)] aggregate count(*) edges aggregate hi: max(w)",
	}
	e1 := newSocialEngine(t, dir)
	want := map[string]*aggregate.View{}
	for name, body := range bodies {
		if _, err := e1.ExecuteContext(ctx, "create view "+name+" on tw "+body); err != nil {
			t.Fatal(err)
		}
		want[name] = mustAgg(t, e1, name)
		if _, err := os.Stat(filepath.Join(dir, name+".aggregate.gvdl")); err != nil {
			t.Fatalf("aggregate view %s not persisted: %v", name, err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	open := func() *Engine {
		e, err := NewEngine(Options{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e2 := open()
	for name, w := range want {
		got := mustAgg(t, e2, name)
		if got.Stmt.String() != w.Stmt.String() {
			t.Fatalf("reloaded statement %q, want %q", got.Stmt, w.Stmt)
		}
		sameAgg(t, "reopened "+name, got, w)
	}

	g, _ := e2.Graph("tw")
	resp, err := e2.NewSession().Do(ctx, &MutateRequest{
		Graph: "tw",
		Inserts: []EdgeChange{
			{Src: 0, Dst: 1, Props: map[string]any{"w": 7, "affinity": 1}},
			{Src: 2, Dst: 3, Props: map[string]any{"w": 10, "affinity": 0}},
		},
		Deletes: []EdgeChange{{Src: g.Srcs[0], Dst: g.Dsts[0]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ma := resp.(*MutationApplied); ma.Maintained != len(bodies) {
		t.Fatalf("mutation maintained %d artifacts, want %d", ma.Maintained, len(bodies))
	}
	fresh := map[string]*aggregate.View{}
	for name, body := range bodies {
		if _, err := e2.ExecuteContext(ctx, "create view fresh-"+name+" on tw "+body); err != nil {
			t.Fatal(err)
		}
		fresh[name] = mustAgg(t, e2, "fresh-"+name)
		if reflect.DeepEqual(fresh[name].SuperEdges, want[name].SuperEdges) {
			t.Fatalf("%s: the mutation changed no super-edge", name)
		}
		sameAgg(t, "mutated "+name, mustAgg(t, e2, name), fresh[name])
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := open()
	for name := range bodies {
		sameAgg(t, "reopened after the mutation "+name, mustAgg(t, e3, name), fresh[name])
	}
}

// TestAggregateOverFilteredView: an aggregate view over a filtered view rolls
// up only the view's member edges — it equals the aggregate over the base
// graph with every non-member edge tombstoned — before and after a mutation
// that changes the view's membership.
func TestAggregateOverFilteredView(t *testing.T) {
	e := newSocialEngine(t, "")
	ctx := context.Background()
	if _, err := e.ExecuteContext(ctx, `create view heavy on tw edges where w >= 5
create view hagg on heavy nodes group by city aggregate count(*) edges aggregate s: sum(w), lo: min(affinity)`); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		g, _ := e.Graph("tw")
		heavy := mustView(t, e, "heavy").Members()
		ref := *g
		ref.DeadWords, ref.NumDead = make([]uint64, (g.NumEdges()+63)/64), 0
		for i := 0; i < g.NumEdges(); i++ {
			if !heavy.Get(i) {
				ref.DeadWords[i/64] |= 1 << (uint(i) & 63)
				ref.NumDead++
			}
		}
		got := mustAgg(t, e, "hagg")
		want, err := aggregate.Evaluate(&ref, got.Stmt, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameAgg(t, stage, got, want)
		var rolled int64
		for _, se := range got.SuperEdges {
			rolled += se.Count
		}
		if members := heavy.Count(); rolled != int64(members) || members >= g.LiveEdges() {
			t.Fatalf("%s: %d edges rolled up; the view has %d of %d live edges", stage, rolled, members, g.LiveEdges())
		}
	}
	check("created")

	g, _ := e.Graph("tw")
	member := int(mustView(t, e, "heavy").Stream.Adds[0][0])
	resp, err := e.NewSession().Do(ctx, &MutateRequest{
		Graph: "tw",
		Inserts: []EdgeChange{
			{Src: 0, Dst: 1, Props: map[string]any{"w": 9, "affinity": 2}},
			{Src: 1, Dst: 2, Props: map[string]any{"w": 1, "affinity": 0}},
		},
		Deletes: []EdgeChange{{Src: g.Srcs[member], Dst: g.Dsts[member]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ma := resp.(*MutationApplied); ma.Maintained != 2 {
		t.Fatalf("mutation maintained %d artifacts, want the view and its aggregate", ma.Maintained)
	}
	check("mutated")
}

// TestAggregateViewLoadErrors: absence is ErrNotFound; a stored aggregate
// view that cannot be read back — text that does not parse, or a statement
// of another name — is a load error, never absence; and a create whose file
// cannot be written leaves nothing behind under the name.
func TestAggregateViewLoadErrors(t *testing.T) {
	dir := t.TempDir()
	e := newSocialEngine(t, dir)
	for _, name := range []string{"missing", "../escape"} {
		if _, err := e.AggView(name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("AggView(%q): %v, want ErrNotFound", name, err)
		}
	}
	for name, text := range map[string]string{
		"corrupt": "create view corrupt on tw nodes group",
		"renamed": "create view other on tw nodes group by city",
	} {
		if err := writeFile(filepath.Join(dir, name+".aggregate.gvdl"), []byte(text)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AggView(name); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("AggView(%q) over a bad file: %v, want a load error", name, err)
		}
	}

	squat := filepath.Join(dir, "p.aggregate.gvdl")
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), "create view p on tw nodes group by city"); err == nil {
		t.Fatal("statement succeeded though its aggregate view could not be persisted")
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AggView("p"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("phantom aggregate view after a failed persist: %v", err)
	}
}
