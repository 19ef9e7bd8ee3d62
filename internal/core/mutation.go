package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// This file is the engine's dynamic-graph path: Engine.ApplyMutation applies
// one transactional mutation batch to a base graph and incrementally
// maintains every materialized artifact over it — collections (filtered views
// among them, as collections of one) re-evaluate their predicates only over
// the touched edges (view.MaintainCollection), aggregate views are evaluated
// again in full once the collections are patched (their stored form is the
// statement, which does not change), and each maintained collection's
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

// loadAllArtifacts loads every persisted collection in the data directory
// into the engine catalog (idempotent: already-cached names are kept). Load
// failures — corruption, missing base graphs, staleness from a mutation the
// view layer never saw — abort, since maintenance must see the complete
// artifact set to keep it consistent.
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
		if name, ok := strings.CutSuffix(ent.Name(), ".collection.gob"); ok {
			if _, err := e.LookupCollection(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// maintItem is one collection in a maintenance plan, its predicates parsed
// (and compiled once against the pre-mutation graph purely to validate
// them), so the post-commit patching phase cannot fail on malformed sources.
type maintItem struct {
	col    *view.Collection
	parent *view.Collection // the view col is declared over; nil for a graph
	depth  int              // length of the On chain down to the graph
	exprs  []gvdl.Expr
}

// maintPlan is the pre-commit maintenance plan for one mutation: every
// artifact over the target graph, collections topologically ordered —
// parent views before the views and collections declared over them — and
// the cataloged aggregate views whose target resolves to the graph.
type maintPlan struct {
	cols []maintItem
	aggs []*gvdl.CreateAggView
}

// planMaintenance collects the artifacts over g and validates that each is
// maintainable. It fails with ErrNotMaintainable — before anything commits
// — when a collection lacks predicate sources or its parent view is missing.
func (e *Engine) planMaintenance(g *graph.Graph) (*maintPlan, error) {
	p := &maintPlan{}
	e.mu.RLock()
	byName := make(map[string]*view.Collection)
	for _, c := range e.collections {
		if c.Graph == g {
			byName[c.Name] = c
		}
	}
	var aggs []*gvdl.CreateAggView
	for _, av := range e.aggViews {
		aggs = append(aggs, av.Stmt)
	}
	e.mu.RUnlock()
	for _, s := range aggs {
		if base, _, err := e.resolveTarget(s.On); err != nil {
			return nil, fmt.Errorf("core: aggregate view %q: %w", s.Name, err)
		} else if base == g {
			p.aggs = append(p.aggs, s)
		}
	}

	for _, c := range byName {
		k := c.Stream.NumViews()
		if k == 0 || len(c.PredSrcs) != k {
			return nil, fmt.Errorf("core: collection %q over graph %s has no retained predicate sources: %w",
				c.Name, g.Name, ErrNotMaintainable)
		}
		depth := 0
		for cur := c; cur.On != ""; depth++ {
			parent, ok := byName[cur.On]
			// depth > len(byName): a re-created ancestor closed the chain
			// into a cycle.
			if !ok || parent.Stream.NumViews() != 1 || depth > len(byName) {
				return nil, fmt.Errorf("core: %q is defined over view %q, which is not a materialized view: %w",
					cur.Name, cur.On, ErrNotMaintainable)
			}
			cur = parent
		}
		exprs := make([]gvdl.Expr, k)
		prog := gvdl.NewEdgeSet(g)
		for ci, src := range c.PredSrcs {
			expr, err := gvdl.ParsePredicate(src)
			if err == nil {
				err = prog.Add(expr)
			}
			if err != nil {
				return nil, fmt.Errorf("core: collection %q view %d predicate source: %w", c.Name, ci, err)
			}
			exprs[ci] = expr
		}
		p.cols = append(p.cols, maintItem{col: c, parent: byName[c.On], depth: depth, exprs: exprs})
	}
	// Parents before children, names breaking ties for deterministic
	// maintenance and persistence order.
	sort.Slice(p.cols, func(i, j int) bool {
		a, b := p.cols[i], p.cols[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		return a.col.Name < b.col.Name
	})
	sort.Slice(p.aggs, func(i, j int) bool { return p.aggs[i].Name < p.aggs[j].Name })
	return p, nil
}

// runMaintenance patches every planned artifact for one committed batch.
// view.MaintainCollection compiles the predicates against the post-mutation
// graph: a compiled program reads the graph's column slice headers, which
// appends reallocate. Compilation was validated pre-commit, so it cannot
// fail now.
func (e *Engine) runMaintenance(g *graph.Graph, p *maintPlan, a graph.Applied) (int, error) {
	maintained := 0
	for _, it := range p.cols {
		c := it.col
		// The parent is earlier in topo order, already patched; masking by
		// its membership keeps views-over-views consistent.
		deltas, err := view.MaintainCollection(c, it.exprs, it.parent, a)
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
		av, err := e.evalAgg(stmt)
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
		if _, verr := e.LookupCollection(s.On); verr == nil {
			return nil, fmt.Errorf("core: apply targets a base graph; %q is a materialized view", s.On)
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
