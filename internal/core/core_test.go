package core

import (
	"context"
	"fmt"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 200, Edges: 2000, Days: 100, Seed: 7})
	g.Name = "so"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	return e
}

// mustView returns the named filtered view: a collection of exactly one view,
// whose Stream.Adds[0] is the edge list.
func mustView(t *testing.T, e *Engine, name string) *view.Collection {
	t.Helper()
	col, err := e.lookupView(name)
	if err != nil {
		t.Fatalf("view %s: %v", name, err)
	}
	return col
}

func TestExecuteFilteredViewAndViewOverView(t *testing.T) {
	e := newTestEngine(t)
	out, err := e.ExecuteContext(context.Background(), `create view early on so edges where ts < 50
create view early-short on early edges where duration <= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %v", out)
	}
	early := mustView(t, e, "early").Stream.Adds[0]
	short := mustView(t, e, "early-short").Stream.Adds[0]
	if len(short) >= len(early) || len(short) == 0 {
		t.Fatalf("early=%d early-short=%d", len(early), len(short))
	}
	if vc := out[1].(gvdl.ViewCreated); vc.Name != "early-short" || vc.Edges != len(short) {
		t.Fatalf("statement result %+v, view has %d edges", vc, len(short))
	}
	// Every edge of the nested view satisfies both predicates.
	g, _ := e.Graph("so")
	tsCol, _ := g.EdgeProps.ColumnIndex("ts")
	durCol, _ := g.EdgeProps.ColumnIndex("duration")
	for _, idx := range short {
		if g.EdgeProps.Cols[tsCol].Ints[idx] >= 50 || g.EdgeProps.Cols[durCol].Ints[idx] > 10 {
			t.Fatalf("edge %d violates nested predicates", idx)
		}
	}
}

func TestExecuteCollectionAndRun(t *testing.T) {
	e := newTestEngine(t)
	src := "create view collection hist on so "
	for i := 1; i <= 5; i++ {
		if i > 1 {
			src += ", "
		}
		src += fmt.Sprintf("[w%d: ts < %d]", i, i*20)
	}
	if _, err := e.ExecuteContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	col, ok := e.Collection("hist")
	if !ok {
		t.Fatal("collection missing")
	}
	if col.Stream.NumViews() != 5 {
		t.Fatal("views")
	}

	res, err := e.RunCollection(context.Background(), "hist", analytics.WCC{}, RunOptions{Mode: DiffOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 5 || res.Total <= 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if res.IterCapHit() {
		t.Fatal("iteration cap hit")
	}
	if len(res.FinalResults()) == 0 {
		t.Fatal("no final results")
	}
	if _, err := e.RunCollection(context.Background(), "nope", analytics.WCC{}, RunOptions{}); err == nil {
		t.Fatal("expected error for unknown collection")
	}
}

func TestExecuteAggregateView(t *testing.T) {
	e, err := NewEngine(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.Social(datagen.SocialConfig{Nodes: 300, Edges: 1500, Locations: 16, Seed: 8})
	g.Name = "tw"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	out, err := e.ExecuteContext(context.Background(), `create view cities on tw
nodes group by city aggregate count(*)
edges aggregate total-w: sum(w)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatal("statement count")
	}
	av, err := e.AggView("cities")
	if err != nil {
		t.Fatal(err)
	}
	if len(av.SuperNodes) != 16 {
		t.Fatalf("%d super nodes", len(av.SuperNodes))
	}
	total := int64(0)
	for _, sn := range av.SuperNodes {
		total += sn.Size
	}
	if total != 300 {
		t.Fatalf("group sizes sum to %d", total)
	}
}

func TestExecuteErrors(t *testing.T) {
	e := newTestEngine(t)
	bad := []string{
		"create view v on nope edges where ts < 5",
		"create view v on so edges where nosuch = 1",
		"garbage",
	}
	for _, src := range bad {
		if _, err := e.ExecuteContext(context.Background(), src); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
	// Aggregate views over filtered views are rejected.
	if _, err := e.ExecuteContext(context.Background(), "create view fv on so edges where ts < 50"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), "create view agg on fv nodes group by city aggregate count(*)"); err == nil {
		t.Fatal("expected error for aggregate over filtered view")
	}
}

// TestModesAgreeOnResults is the executor-level equivalence check: diff-only,
// scratch and adaptive all produce identical final results.
func TestModesAgreeOnResults(t *testing.T) {
	e := newTestEngine(t)
	src := "create view collection c on so [a: ts < 30], [b: ts < 55], [c: duration <= 20], [d: ts < 90]"
	if _, err := e.ExecuteContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	col, _ := e.Collection("c")

	var results []map[analytics.VertexValue]int64
	for _, mode := range []ExecMode{DiffOnly, Scratch, Adaptive} {
		res, err := RunCollectionContext(context.Background(), col, analytics.SSSP{Source: 0}, RunOptions{Mode: mode, WeightProp: "duration", BatchSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res.FinalResults())
		if mode == Scratch && res.Splits != col.Stream.NumViews()-1 {
			t.Fatalf("scratch mode: %d splits", res.Splits)
		}
		if mode == DiffOnly && res.Splits != 0 {
			t.Fatalf("diff-only mode: %d splits", res.Splits)
		}
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("mode %d: %d results vs %d", i, len(results[i]), len(results[0]))
		}
		for k, v := range results[0] {
			if results[i][k] != v {
				t.Fatalf("mode %d: %+v = %d, want %d", i, k, results[i][k], v)
			}
		}
	}
}

func TestAdaptiveBootstrap(t *testing.T) {
	e := newTestEngine(t)
	src := "create view collection c on so [a: ts < 20], [b: ts < 40], [c: ts < 60], [d: ts < 80]"
	if _, err := e.ExecuteContext(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	col, _ := e.Collection("c")
	res, err := RunCollectionContext(context.Background(), col, analytics.BFS{Source: 0}, RunOptions{Mode: Adaptive, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].Mode != splitting.ModeScratch {
		t.Fatal("view 0 should be scratch")
	}
	if res.Stats[1].Mode != splitting.ModeDiff {
		t.Fatal("view 1 should be diff (bootstrap)")
	}
}

func TestRunView(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.ExecuteContext(context.Background(), "create view early on so edges where ts < 50"); err != nil {
		t.Fatal(err)
	}
	fv := mustView(t, e, "early")
	res, err := RunView(context.Background(), fv, analytics.Degree{}, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 || res.Duration <= 0 || res.View != "early" || res.Edges != len(fv.Stream.Adds[0]) {
		t.Fatalf("view run %+v", res)
	}
	if _, err := RunView(context.Background(), fv, analytics.Degree{}, 1, "nope"); err == nil {
		t.Fatal("expected weight property error")
	}
}

func TestViewStatsShape(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.ExecuteContext(context.Background(), "create view collection c on so [a: ts < 30], [b: ts < 60]"); err != nil {
		t.Fatal(err)
	}
	col, _ := e.Collection("c")
	res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := col.Stream.ViewSizes()
	for i, st := range res.Stats {
		if st.ViewSize != sizes[i] || st.DiffSize != col.Stream.DiffSize(i) {
			t.Fatalf("stats[%d] = %+v", i, st)
		}
		if st.OutputDiffs <= 0 {
			t.Fatalf("stats[%d]: no output diffs", i)
		}
	}
	if res.MaxWork() <= 0 {
		t.Fatal("no work recorded")
	}
	if res.Mode.String() != "diff-only" {
		t.Fatal("mode string")
	}
}

func TestOrderingModesThroughEngine(t *testing.T) {
	// Engines configured with the ordering optimizer materialize
	// collections with (potentially) fewer diffs but identical view
	// contents.
	for _, mode := range []view.OrderingMode{view.OrderAsWritten, view.OrderOptimized} {
		e, err := NewEngine(Options{Workers: 1, Ordering: mode})
		if err != nil {
			t.Fatal(err)
		}
		g := datagen.Temporal(datagen.TemporalConfig{Nodes: 100, Edges: 800, Days: 50, Seed: 9})
		g.Name = "so"
		if err := e.AddGraph(g); err != nil {
			t.Fatal(err)
		}
		// Deliberately shuffled windows.
		if _, err := e.ExecuteContext(context.Background(), "create view collection c on so [a: ts < 40], [b: ts < 10], [c: ts < 30], [d: ts < 20]"); err != nil {
			t.Fatal(err)
		}
		col, _ := e.Collection("c")
		res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FinalResults()) == 0 {
			t.Fatal("no results")
		}
		if mode == view.OrderOptimized {
			// Nested windows: optimal order is monotone; total diffs must
			// equal the largest view plus the increments.
			if col.Stream.TotalDiffs() >= 2*int64(col.Stream.ViewSizes()[col.Stream.NumViews()-1]) {
				t.Fatalf("ordering optimizer ineffective: %d diffs", col.Stream.TotalDiffs())
			}
		}
	}
}
