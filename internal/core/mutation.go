package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"graphsurge/internal/aggregate"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// This file is the engine's dynamic-graph path: Engine.ApplyMutation applies
// one transactional mutation batch to a base graph and incrementally
// maintains every materialized artifact over it — filtered views and
// collections re-evaluate their predicates only over the touched edges
// (view.MaintainFiltered/MaintainCollection), aggregate views re-evaluate
// from their retained statements, and each maintained collection's
// final-view membership delta is queued on the warm replicas that finished
// on it (replica.go). Mutations are serialized against runs by the engine's
// run barrier: a mutation waits for in-flight runs to drain and blocks new
// ones while it edits streams in place.

// ErrNotMaintainable reports a mutation refused because a materialized
// artifact over the target graph cannot be incrementally maintained — it
// was built programmatically, without retained predicate sources. The graph
// is left unmutated; drop or re-create the artifact through GVDL to
// proceed.
var ErrNotMaintainable = errors.New("core: artifact cannot be maintained incrementally")

// beginMutation admits one mutation: it waits for any other mutation to
// finish, then for in-flight runs to drain (beginRun blocks new runs while
// a mutation holds the flag). Every successful beginMutation is paired with
// an endMutation.
func (e *Engine) beginMutation() error {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	for e.mutating {
		if e.closing {
			return ErrClosing
		}
		e.runDone.Wait()
	}
	if e.closing {
		return ErrClosing
	}
	e.mutating = true
	for e.active > 0 {
		e.runDone.Wait()
	}
	return nil
}

func (e *Engine) endMutation() {
	e.runMu.Lock()
	e.mutating = false
	e.runDone.Broadcast()
	e.runMu.Unlock()
}

// ApplyMutation applies one validated mutation batch to the named base
// graph and incrementally maintains every materialized view, collection and
// aggregate view over it. The batch commits transactionally in the graph
// store (journaled when the engine persists); maintenance then patches each
// artifact in place and re-persists it at the new graph version. Artifacts
// that cannot be maintained refuse the whole mutation with
// ErrNotMaintainable before anything commits.
func (e *Engine) ApplyMutation(graphName string, mb *graph.MutationBatch) (*MutationApplied, error) {
	if err := e.beginMutation(); err != nil {
		return nil, err
	}
	defer e.endMutation()

	g, err := e.store.Graph(graphName)
	if err != nil {
		return nil, err
	}
	// Pull every persisted artifact into the catalog first: an artifact left
	// on disk during maintenance would record the old graph version and fail
	// closed (view.ErrStale) on every later load.
	if err := e.loadAllArtifacts(); err != nil {
		return nil, fmt.Errorf("core: loading artifacts before mutating %s: %w", graphName, err)
	}
	plan, err := e.planMaintenance(g)
	if err != nil {
		return nil, err
	}
	applied, err := e.store.ApplyMutation(graphName, mb)
	if err != nil {
		return nil, err
	}
	maintained, err := e.runMaintenance(g, plan, applied)
	if err != nil {
		// The batch is committed and journaled; what failed is patching or
		// re-persisting an artifact. Memory and disk stay safe — a stale
		// on-disk artifact fails closed at its next load.
		return nil, fmt.Errorf("core: graph %s mutated to version %d, but view maintenance failed: %w",
			graphName, applied.Version, err)
	}
	return &MutationApplied{
		Graph:      graphName,
		Version:    applied.Version,
		Inserted:   applied.Inserted,
		Deleted:    len(applied.Deleted),
		Maintained: maintained,
	}, nil
}

// loadAllArtifacts loads every persisted view and collection in the data
// directory into the engine catalog (idempotent: already-cached names are
// kept). Load failures — corruption, missing base graphs, staleness from a
// mutation the view layer never saw — abort, since maintenance must see the
// complete artifact set to keep it consistent.
func (e *Engine) loadAllArtifacts() error {
	if e.opts.DataDir == "" {
		return nil
	}
	ents, err := os.ReadDir(e.opts.DataDir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".view.gob"):
			if _, err := e.LookupView(strings.TrimSuffix(name, ".view.gob")); err != nil {
				return err
			}
		case strings.HasSuffix(name, ".collection.gob"):
			if _, err := e.LookupCollection(strings.TrimSuffix(name, ".collection.gob")); err != nil {
				return err
			}
		}
	}
	return nil
}

// maintPlan is the pre-commit maintenance plan for one mutation: every
// artifact over the target graph, with predicates parsed (and compiled once
// against the pre-mutation graph purely to validate them), so the
// post-commit patching phase cannot fail on malformed sources.
type maintPlan struct {
	views     []*view.Filtered // topologically ordered: parents before children
	viewExprs []gvdl.Expr
	cols      []*view.Collection
	colExprs  [][]gvdl.Expr
	aggs      []*gvdl.CreateAggView
}

// planMaintenance collects the artifacts over g and validates that each is
// maintainable. It fails with ErrNotMaintainable — before anything commits
// — when an artifact lacks predicate sources or its parent view is missing.
func (e *Engine) planMaintenance(g *graph.Graph) (*maintPlan, error) {
	e.mu.RLock()
	byName := make(map[string]*view.Filtered)
	for _, v := range e.views {
		if v.Base == g {
			byName[v.Name] = v
		}
	}
	var cols []*view.Collection
	for _, c := range e.collections {
		if c.Graph == g {
			cols = append(cols, c)
		}
	}
	var aggs []*gvdl.CreateAggView
	for name := range e.aggViews {
		if s, ok := e.aggStmts[name]; ok && s.On == g.Name {
			aggs = append(aggs, s)
		}
	}
	e.mu.RUnlock()

	p := &maintPlan{aggs: aggs}

	// Views, parents before children (the On chain), names breaking ties for
	// deterministic maintenance and persistence order.
	depth := func(v *view.Filtered) (int, error) {
		d := 0
		for v.On != "" {
			parent, ok := byName[v.On]
			if !ok {
				return 0, fmt.Errorf("core: view %q is defined over view %q, which is not materialized: %w",
					v.Name, v.On, ErrNotMaintainable)
			}
			v, d = parent, d+1
		}
		return d, nil
	}
	for _, v := range byName {
		p.views = append(p.views, v)
	}
	sort.Slice(p.views, func(i, j int) bool { return p.views[i].Name < p.views[j].Name })
	depths := make(map[string]int, len(p.views))
	for _, v := range p.views {
		d, err := depth(v)
		if err != nil {
			return nil, err
		}
		depths[v.Name] = d
	}
	sort.SliceStable(p.views, func(i, j int) bool { return depths[p.views[i].Name] < depths[p.views[j].Name] })

	for _, v := range p.views {
		if v.PredSrc == "" {
			return nil, fmt.Errorf("core: view %q over graph %s has no retained predicate source: %w",
				v.Name, g.Name, ErrNotMaintainable)
		}
		expr, err := gvdl.ParsePredicate(v.PredSrc)
		if err != nil {
			return nil, fmt.Errorf("core: view %q predicate source: %w", v.Name, err)
		}
		if _, err := gvdl.CompileEdgePredicate(g, expr); err != nil {
			return nil, fmt.Errorf("core: view %q predicate source: %w", v.Name, err)
		}
		p.viewExprs = append(p.viewExprs, expr)
	}

	sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
	for _, c := range cols {
		k := c.Stream.NumViews()
		if len(c.PredSrcs) != k {
			return nil, fmt.Errorf("core: collection %q over graph %s has no retained predicate sources: %w",
				c.Name, g.Name, ErrNotMaintainable)
		}
		if c.On != "" {
			if _, ok := byName[c.On]; !ok {
				return nil, fmt.Errorf("core: collection %q is defined over view %q, which is not materialized: %w",
					c.Name, c.On, ErrNotMaintainable)
			}
		}
		exprs := make([]gvdl.Expr, k)
		for ci, src := range c.PredSrcs {
			expr, err := gvdl.ParsePredicate(src)
			if err != nil {
				return nil, fmt.Errorf("core: collection %q view %d predicate source: %w", c.Name, ci, err)
			}
			if _, err := gvdl.CompileEdgePredicate(g, expr); err != nil {
				return nil, fmt.Errorf("core: collection %q view %d predicate source: %w", c.Name, ci, err)
			}
			exprs[ci] = expr
		}
		p.cols = append(p.cols, c)
		p.colExprs = append(p.colExprs, exprs)
	}
	sort.Slice(p.aggs, func(i, j int) bool { return p.aggs[i].Name < p.aggs[j].Name })
	return p, nil
}

// runMaintenance patches every planned artifact for one committed batch.
// Predicates are recompiled here, against the post-mutation graph: compiled
// predicates close over the graph's column slice headers, which appends
// reallocate, so pre-mutation closures must never be evaluated at inserted
// indices. Compilation was validated pre-commit, so it cannot fail now.
func (e *Engine) runMaintenance(g *graph.Graph, p *maintPlan, a graph.Applied) (int, error) {
	maintained := 0
	byName := make(map[string]*view.Filtered, len(p.views))
	for i, v := range p.views {
		pred, err := gvdl.CompileEdgePredicate(g, p.viewExprs[i])
		if err != nil {
			return maintained, fmt.Errorf("recompiling view %q: %w", v.Name, err)
		}
		if v.On != "" {
			// The parent is earlier in topo order, already patched; composing
			// with its membership keeps views-over-views consistent.
			parent := byName[v.On]
			inner := pred
			pred = func(i int) bool { return parent.Contains(uint32(i)) && inner(i) }
		}
		view.MaintainFiltered(v, pred, a)
		byName[v.Name] = v
		if e.opts.DataDir != "" {
			if err := view.SaveFiltered(e.opts.DataDir, v); err != nil {
				return maintained, fmt.Errorf("persisting view %q: %w", v.Name, err)
			}
		}
		maintained++
	}
	for i, c := range p.cols {
		preds := make([]gvdl.EdgePredicate, len(p.colExprs[i]))
		for ci, expr := range p.colExprs[i] {
			pred, err := gvdl.CompileEdgePredicate(g, expr)
			if err != nil {
				return maintained, fmt.Errorf("recompiling collection %q view %d: %w", c.Name, ci, err)
			}
			if c.On != "" {
				parent := byName[c.On]
				inner := pred
				pred = func(i int) bool { return parent.Contains(uint32(i)) && inner(i) }
			}
			preds[ci] = pred
		}
		deltas, err := view.MaintainCollection(c, preds, a)
		if err != nil {
			return maintained, fmt.Errorf("maintaining collection %q: %w", c.Name, err)
		}
		if e.opts.DataDir != "" {
			if err := view.SaveCollection(e.opts.DataDir, c); err != nil {
				return maintained, fmt.Errorf("persisting collection %q: %w", c.Name, err)
			}
		}
		// The final ordered view's membership delta is what an incremental
		// re-run feeds into a warm replica as a new outer version.
		e.queueDelta(c, deltas[len(deltas)-1], a.Version)
		maintained++
	}
	for _, stmt := range p.aggs {
		av, err := aggregate.Evaluate(g, stmt, e.opts.Workers)
		if err != nil {
			return maintained, fmt.Errorf("re-evaluating aggregate view %q: %w", stmt.Name, err)
		}
		e.mu.Lock()
		e.aggViews[stmt.Name] = av
		e.mu.Unlock()
		maintained++
	}
	return maintained, nil
}

// applyStmt executes a GVDL apply statement: it validates the edge literals
// into a mutation batch against the target graph's schema and runs the
// batch through ApplyMutation (which takes the mutation barrier itself —
// apply statements are the one executeStmt case not admitted as a run).
func (e *Engine) applyStmt(s *gvdl.ApplyMutation) (gvdl.Result, error) {
	g, err := e.store.Graph(s.On)
	if err != nil {
		if _, verr := e.LookupView(s.On); verr == nil {
			return nil, fmt.Errorf("core: apply targets a base graph; %q is a filtered view", s.On)
		}
		return nil, err
	}
	ins := make([]graph.EdgeInsert, len(s.Inserts))
	for i, el := range s.Inserts {
		props := make(map[string]graph.Value, len(el.Props))
		for _, pl := range el.Props {
			props[pl.Name] = pl.Val
		}
		ins[i] = graph.EdgeInsert{Src: el.Src, Dst: el.Dst, Props: props}
	}
	dels := make([]graph.EdgePair, len(s.Deletes))
	for i, el := range s.Deletes {
		dels[i] = graph.EdgePair{Src: el.Src, Dst: el.Dst}
	}
	mb, err := graph.NewMutationBatch(g, ins, dels)
	if err != nil {
		return nil, err
	}
	ma, err := e.ApplyMutation(s.On, mb)
	if err != nil {
		return nil, err
	}
	return gvdl.GraphMutated{
		Graph:      ma.Graph,
		Version:    ma.Version,
		Inserted:   ma.Inserted,
		Deleted:    ma.Deleted,
		Maintained: ma.Maintained,
	}, nil
}

// Mutate is the typed-request form of ApplyMutation: it converts the wire
// edge changes (JSON property values) into a validated mutation batch
// against the graph's schema and applies it. Session.Do dispatches
// MutateRequest here.
func (e *Engine) Mutate(r *MutateRequest) (*MutationApplied, error) {
	if r.Graph == "" {
		return nil, fmt.Errorf("core: mutate request needs a graph name")
	}
	g, err := e.store.Graph(r.Graph)
	if err != nil {
		return nil, err
	}
	ins := make([]graph.EdgeInsert, len(r.Inserts))
	for i, ec := range r.Inserts {
		props := make(map[string]graph.Value, len(ec.Props))
		for name, raw := range ec.Props {
			v, err := wireValue(raw)
			if err != nil {
				return nil, fmt.Errorf("core: mutate %s: edge %d->%d property %q: %w",
					r.Graph, ec.Src, ec.Dst, name, err)
			}
			props[name] = v
		}
		ins[i] = graph.EdgeInsert{Src: ec.Src, Dst: ec.Dst, Props: props}
	}
	dels := make([]graph.EdgePair, len(r.Deletes))
	for i, ec := range r.Deletes {
		dels[i] = graph.EdgePair{Src: ec.Src, Dst: ec.Dst}
	}
	mb, err := graph.NewMutationBatch(g, ins, dels)
	if err != nil {
		return nil, err
	}
	return e.ApplyMutation(r.Graph, mb)
}

// wireValue converts a decoded JSON property value to a typed graph value.
// JSON numbers arrive as float64, so integer properties additionally demand
// integrality; programmatic callers may pass Go integers or graph.Value
// directly.
func wireValue(raw any) (graph.Value, error) {
	switch x := raw.(type) {
	case graph.Value:
		return x, nil
	case float64:
		if x != math.Trunc(x) || x < math.MinInt64 || x >= math.MaxInt64 {
			return graph.Value{}, fmt.Errorf("value %v is not an integer", x)
		}
		return graph.IntValue(int64(x)), nil
	case int:
		return graph.IntValue(int64(x)), nil
	case int64:
		return graph.IntValue(x), nil
	case string:
		return graph.StringValue(x), nil
	case bool:
		return graph.BoolValue(x), nil
	}
	return graph.Value{}, fmt.Errorf("unsupported property value type %T", raw)
}
