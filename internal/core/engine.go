// Package core ties Graphsurge together: the engine facade that owns the
// graph store and view catalogs, executes GVDL statements, and runs
// analytics computations over view collections with the paper's three
// execution strategies — diff-only, scratch, and the adaptive splitting
// optimizer (§3, §5, §7).
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphsurge/internal/aggregate"
	"graphsurge/internal/analytics"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/obs"
	"graphsurge/internal/view"
)

// Options configures an Engine.
type Options struct {
	// DataDir persists graphs when non-empty.
	DataDir string
	// Workers is the default dataflow parallelism (minimum 1).
	Workers int
	// Parallelism is the default RunOptions.Parallelism for RunCollection —
	// the number of independent collection segments executed concurrently
	// per run (minimum 1).
	Parallelism int
	// Ordering is the default collection-ordering mode for ExecuteContext.
	Ordering view.OrderingMode
}

// ErrNotFound reports that a name resolved to no view, collection or
// aggregate view, as opposed to one that exists but failed to load from the
// view store — callers branch on it with errors.Is (resolveTarget falls back
// to the graph store only on ErrNotFound, never on a load failure).
var ErrNotFound = errors.New("not found")

// ErrNotView reports a name used where a single filtered view is required —
// an "on" target, a RunViewRequest — that resolves to a collection of more
// (or fewer) than one view.
var ErrNotView = errors.New("not a single view")

// ErrClosing reports a run rejected because Engine.Close is draining: Close
// waits for in-flight runs to finish before tearing the pools down, and a
// run arriving during that wait is refused rather than racing the teardown.
var ErrClosing = errors.New("core: engine is closing")

// Engine is a Graphsurge instance: graph store, view store, executors, and
// the warm runner pools that amortize dataflow construction across
// RunCollection calls (see DESIGN.md on the engine pool lifecycle).
type Engine struct {
	opts  Options
	store *graph.Store

	// mu guards the catalog maps and nothing else; it is never held across
	// another lock (DESIGN.md "Artifacts" has the lock order). collections is
	// the one catalog of edge-subset artifacts: a filtered view is a
	// collection whose Stream.NumViews() is 1. aggViews holds the aggregate
	// views, each carrying the statement it is re-evaluated from.
	mu          sync.RWMutex
	collections map[string]*view.Collection
	aggViews    map[string]*aggregate.View

	// warmMu guards both LRU-bounded warm stores: the runner pool map and the
	// warm replica list (replica.go); per-replica locks serialize runs over
	// one replica.
	warmMu   sync.Mutex
	pools    map[poolKey]*poolEntry
	replicas []*replica

	// runMu guards the active-run count, the closing flag and the mutating
	// flag; runDone is signalled as active reaches zero and as a mutation
	// finishes, so Close can wait for in-flight work instead of racing pool
	// map accesses and replica releases, and so runs and mutations mutually
	// exclude (a mutation edits views and difference streams in place).
	runMu    sync.Mutex
	runDone  *sync.Cond
	active   int
	closing  bool
	mutating bool

	// traces retains recent completed run traces keyed by run ID — what
	// `GET /v1/traces/<runID>` and `run -trace` read; runSeq numbers the
	// runs this engine admits.
	traces *obs.TraceStore
	runSeq atomic.Uint64
}

// poolEntry is one warm-pool map slot: the pool and the last time a run
// acquired through it — the recency the LRU eviction below orders by.
type poolEntry struct {
	pool    *analytics.Pool
	lastUse time.Time
}

// maxEnginePools bounds the warm-pool map: parameterized computations (a
// bfs sweep over thousands of sources) would otherwise accumulate one pool
// of full-state replicas per parameterization, never reused. At the cap the
// least-recently-used pool — the coldest parameterization — is evicted to
// make room.
const maxEnginePools = 64

// poolKey identifies one warm runner pool: the computation's name, its full
// identity (name plus parameters, so bfs(source=1) and bfs(source=2) never
// share recycled dataflows) and the intra-dataflow worker count the
// replicas were built with. The name is a separate field so EvictPools
// never has to parse it back out of the composite identity.
type poolKey struct {
	name    string
	ident   string
	workers int
}

// compIdentity renders a computation's identity for pool keying. Built-in
// computations are plain parameter structs, so their Go-syntax
// representation (%#v — which, unlike %+v, quotes string fields, keeping
// adjacent fields unambiguous) is a faithful, deterministic identity.
func compIdentity(comp analytics.Computation) string {
	return fmt.Sprintf("%s|%#v", comp.Name(), comp)
}

// identifiableComp reports whether a computation's printed value faithfully
// identifies it. Funcs and channels print as addresses that don't
// distinguish captured state (two closures from one literal print
// identically), interface fields hide arbitrary dynamic types, and nested
// pointers print as raw addresses rather than pointee values — so
// computations carrying any of those are never pooled across runs: sharing
// a recycled dataflow between semantically different computations would
// silently return wrong results, and address-based keys would also leak one
// pool per allocation. Only the top-level pointer receiver is exempt,
// because fmt dereferences it (&{...}).
func identifiableComp(comp analytics.Computation) bool {
	t := reflect.TypeOf(comp)
	if t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return identifiableType(t, make(map[reflect.Type]bool))
}

func identifiableType(t reflect.Type, seen map[reflect.Type]bool) bool {
	if t == nil || seen[t] {
		return true
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer, reflect.Uintptr,
		reflect.Interface, reflect.Pointer:
		return false
	case reflect.Slice, reflect.Array:
		return identifiableType(t.Elem(), seen)
	case reflect.Map:
		return identifiableType(t.Key(), seen) && identifiableType(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !identifiableType(t.Field(i).Type, seen) {
				return false
			}
		}
	}
	return true
}

// NewEngine creates an engine.
func NewEngine(opts Options) (*Engine, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	st, err := graph.NewStore(opts.DataDir)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:        opts,
		store:       st,
		collections: make(map[string]*view.Collection),
		aggViews:    make(map[string]*aggregate.View),
		pools:       make(map[poolKey]*poolEntry),
		traces:      obs.NewTraceStore(0),
	}
	e.runDone = sync.NewCond(&e.runMu)
	return e, nil
}

// Traces returns the engine's completed-trace store. The HTTP server
// serves it at /v1/traces; the CLI renders from it after a -trace run.
func (e *Engine) Traces() *obs.TraceStore { return e.traces }

// ensureTrace returns a context carrying a run trace, creating one (with
// a fresh engine-scoped run ID) when the caller supplied none. created
// reports whether this call made the trace — the creator is responsible
// for adding it to the trace store once the run completes.
func (e *Engine) ensureTrace(ctx context.Context) (context.Context, *obs.Trace, bool) {
	if tr := obs.FromContext(ctx); tr != nil {
		return ctx, tr, false
	}
	tr := obs.NewTrace(fmt.Sprintf("run-%d", e.runSeq.Add(1)))
	return obs.WithTrace(ctx, tr), tr, true
}

// beginRun admits one run (RunOn, RunSegment, a materializing statement)
// against the engine's pools and catalogs, refusing with ErrClosing while
// Close is draining and waiting while a mutation holds the barrier (the
// mutation edits views and streams the run would read). Every successful
// beginRun is paired with an endRun.
func (e *Engine) beginRun() error {
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
	e.active++
	return nil
}

// Admit runs fn under the engine's run barrier: fn executes only while no
// mutation is editing catalog artifacts in place, and any mutation arriving
// meanwhile waits for fn to return. Serving middleware (internal/tenant)
// uses it to read collection difference streams — for cache fingerprinting —
// race-free against incremental maintenance. fn must not re-enter the
// engine's run or mutation paths (RunOn, ApplyMutation): a
// nested admission would deadlock behind a mutation waiting for this one to
// drain. Refuses with ErrClosing while Close is draining.
func (e *Engine) Admit(fn func() error) error {
	if err := e.beginRun(); err != nil {
		return err
	}
	defer e.endRun()
	return fn()
}

func (e *Engine) endRun() {
	e.runMu.Lock()
	e.active--
	if e.active == 0 {
		e.runDone.Broadcast()
	}
	e.runMu.Unlock()
}

// Options returns the engine's effective configuration (defaults applied).
func (e *Engine) Options() Options { return e.opts }

// runnerPool returns the engine's warm runner pool for (computation,
// workers), creating it on first use and growing its replica capacity to at
// least parallelism. Pools are shared by concurrent RunCollection calls: the
// pool is the global admission control (at most capacity replicas live
// across all runs), each run additionally self-limits to its own
// Parallelism, and released replicas are recycled across calls via in-place
// reset.
func (e *Engine) runnerPool(comp analytics.Computation, workers, parallelism int) *analytics.Pool {
	if !identifiableComp(comp) {
		// No faithful identity to key on: give the run a private pool so a
		// replica can never be recycled into a different computation.
		return analytics.NewPool(comp, workers, parallelism)
	}
	key := poolKey{name: comp.Name(), ident: compIdentity(comp), workers: workers}
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	en := e.pools[key]
	if en != nil && compIdentity(en.pool.Computation()) != key.ident {
		// The cached computation object was mutated after submission (a
		// pointer computation whose fields changed), so the pool would build
		// replicas that contradict its key. Drop the stale pool and rebuild.
		en.pool.DropIdle()
		en = nil
		delete(e.pools, key)
	}
	if en == nil {
		if len(e.pools) >= maxEnginePools {
			// Evict the least-recently-acquired pool: the coldest
			// parameterization is the one least likely to be asked for again.
			var victim poolKey
			var oldest time.Time
			first := true
			for k, old := range e.pools {
				if first || old.lastUse.Before(oldest) {
					victim, oldest, first = k, old.lastUse, false
				}
			}
			e.pools[victim].pool.DropIdle()
			delete(e.pools, victim)
		}
		en = &poolEntry{pool: analytics.NewPool(comp, workers, parallelism)}
		e.pools[key] = en
	} else {
		en.pool.Grow(parallelism)
	}
	en.lastUse = time.Now()
	return en.pool
}

// EvictPools drops every warm runner pool whose computation has the given
// name (all parameterizations and worker counts), releasing their replica
// memory. In-flight runs keep their already-acquired replicas; their
// releases land in the evicted pools, which are collected once those runs
// finish.
func (e *Engine) EvictPools(computation string) {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	for key, en := range e.pools {
		if key.name == computation {
			en.pool.DropIdle()
			delete(e.pools, key)
		}
	}
}

// Close releases engine-held resources: it waits for in-flight runs to
// complete (runs that arrive while it is waiting are refused with
// ErrClosing — Close never races the pool map or a replica release), then
// drops every warm runner pool. The engine remains usable once Close
// returns — a later RunCollection simply rebuilds its pools — so Close is
// also the "quiesce and evict everything" path for memory pressure.
func (e *Engine) Close() error {
	e.runMu.Lock()
	e.closing = true
	for e.active > 0 || e.mutating {
		e.runDone.Wait()
	}
	e.warmMu.Lock()
	for key, en := range e.pools {
		en.pool.DropIdle()
		delete(e.pools, key)
	}
	e.replicas = nil
	e.warmMu.Unlock()
	e.closing = false
	e.runMu.Unlock()
	return nil
}

// PoolStat is one warm runner pool's externally visible state: identity,
// capacity and occupancy, and the lifetime effectiveness counters
// (built/reused acquisitions).
type PoolStat struct {
	Computation string `json:"computation"` // computation name
	Ident       string `json:"ident"`       // full identity (name plus parameters)
	Workers     int    `json:"workers"`
	Capacity    int    `json:"capacity"`
	Live        int    `json:"live"`
	Idle        int    `json:"idle"`
	Built       int    `json:"built"`
	Reused      int    `json:"reused"`
}

// PoolStats reports every warm runner pool's state, sorted by computation
// identity then workers for deterministic output — the metrics export for
// pool sizing (cmd/graphsurge prints it after runs).
func (e *Engine) PoolStats() []PoolStat {
	e.warmMu.Lock()
	defer e.warmMu.Unlock()
	stats := make([]PoolStat, 0, len(e.pools))
	for key, en := range e.pools {
		p := en.pool
		built, reused := p.Counts()
		stats = append(stats, PoolStat{
			Computation: key.name,
			Ident:       key.ident,
			Workers:     key.workers,
			Capacity:    p.Size(),
			Live:        p.Live(),
			Idle:        p.Idle(),
			Built:       built,
			Reused:      reused,
		})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Ident != stats[j].Ident {
			return stats[i].Ident < stats[j].Ident
		}
		return stats[i].Workers < stats[j].Workers
	})
	return stats
}

// LoadGraphCSV imports a graph from CSV files and registers it.
func (e *Engine) LoadGraphCSV(name, nodesPath, edgesPath string) (*graph.Graph, error) {
	g, err := graph.LoadCSV(name, nodesPath, edgesPath)
	if err != nil {
		return nil, err
	}
	if err := e.store.Add(g); err != nil {
		return nil, err
	}
	return g, nil
}

// AddGraph registers an in-memory graph (datagen, tests).
func (e *Engine) AddGraph(g *graph.Graph) error { return e.store.Add(g) }

// AddCollection registers a prebuilt materialized collection (datagen,
// benchmarks, embedding callers that materialize outside GVDL). It is
// persisted like a GVDL-created collection when the engine has a data
// directory.
func (e *Engine) AddCollection(col *view.Collection) error { return e.register(col) }

// register is the one way an edge-subset artifact enters the catalog:
// persist, then publish, then retire the warm replicas accumulated under the
// name. Persist first: a failed save must not leave a phantom collection
// registered in memory that the caller was told failed and that would
// silently vanish on restart.
func (e *Engine) register(col *view.Collection) error {
	if e.opts.DataDir != "" {
		if err := view.SaveCollection(e.opts.DataDir, col); err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.collections[col.Name] = col
	e.mu.Unlock()
	e.dropIncStates(col.Name)
	return nil
}

// Graph looks up a base graph.
func (e *Engine) Graph(name string) (*graph.Graph, error) { return e.store.Graph(name) }

// LookupCollection returns the materialized collection — or filtered view,
// a collection of one — with the given name, read through from the view
// store. Corrupt gob, out-of-range edge indices, a missing base graph and a
// leftover file of the retired single-view format are load errors.
func (e *Engine) LookupCollection(name string) (*view.Collection, error) {
	return readThrough(e, e.collections, "collection", name, func() (*view.Collection, error) {
		return view.LoadCollection(e.opts.DataDir, name, e.store.Graph)
	})
}

// readThrough is the catalog's one lookup path: a cataloged artifact is
// returned as is, else load reads it from the data directory and the first
// loader's result is cataloged. No file, or a name the store refuses (a graph
// may still have it), is ErrNotFound; any other load failure is returned as
// itself, so corruption is never mistaken for absence.
func readThrough[T any](e *Engine, catalog map[string]T, kind, name string, load func() (T, error)) (T, error) {
	e.mu.RLock()
	v, ok := catalog[name]
	e.mu.RUnlock()
	if ok {
		return v, nil
	}
	var zero T
	if e.opts.DataDir == "" {
		return zero, fmt.Errorf("core: no %s named %q: %w", kind, name, ErrNotFound)
	}
	loaded, err := load()
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, view.ErrInvalidName) {
		return zero, fmt.Errorf("core: no %s named %q: %w", kind, name, ErrNotFound)
	}
	if err != nil {
		return zero, fmt.Errorf("core: loading %s %q from the view store: %w", kind, name, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := catalog[name]; ok {
		return v, nil
	}
	catalog[name] = loaded
	return loaded, nil
}

// lookupView resolves a name that must denote a single filtered view: a
// collection of exactly one view. A multi-view collection is ErrNotView.
func (e *Engine) lookupView(name string) (*view.Collection, error) {
	col, err := e.LookupCollection(name)
	if err != nil {
		return nil, err
	}
	if col.Stream == nil || col.Stream.NumViews() != 1 {
		return nil, fmt.Errorf("core: %q is a view collection: %w", name, ErrNotView)
	}
	return col, nil
}

// Collection looks up a materialized view collection, falling back to the
// view store on disk when the engine has a data directory.
func (e *Engine) Collection(name string) (*view.Collection, bool) {
	c, err := e.LookupCollection(name)
	return c, err == nil
}

// AggView returns the aggregate view with the given name, read through like
// LookupCollection: a stored view is its statement, evaluated against its
// target as it is now, under the run barrier so no mutation lands between
// that evaluation and cataloging the result.
func (e *Engine) AggView(name string) (*aggregate.View, error) {
	if err := e.beginRun(); err != nil {
		return nil, err
	}
	defer e.endRun()
	return readThrough(e, e.aggViews, "aggregate view", name, func() (*aggregate.View, error) {
		stmt, err := view.LoadAggregate(e.opts.DataDir, name)
		if err != nil {
			return nil, err
		}
		return e.evalAgg(stmt)
	})
}

// evalAgg evaluates an aggregate view's statement against its resolved
// target: over a filtered view, only the view's member edges roll up.
func (e *Engine) evalAgg(stmt *gvdl.CreateAggView) (*aggregate.View, error) {
	g, parent, err := e.resolveTarget(stmt.On)
	if err != nil {
		return nil, err
	}
	return aggregate.Evaluate(g, stmt, parent.Members())
}

// resolveTarget resolves a statement's "on" clause to a base graph plus an
// optional parent view (GVDL supports views over views). Resolution goes
// through LookupCollection, so a view persisted by an earlier engine over the
// same data directory is a valid target after a restart; a view-store load
// failure is surfaced rather than misreported as "neither a graph nor a
// view", and so is a multi-view collection no graph shares the name of.
func (e *Engine) resolveTarget(name string) (*graph.Graph, *view.Collection, error) {
	parent, err := e.lookupView(name)
	if err == nil {
		return parent.Graph, parent, nil
	}
	notView := errors.Is(err, ErrNotView)
	if !notView && !errors.Is(err, ErrNotFound) {
		return nil, nil, err
	}
	g, gerr := e.store.Graph(name)
	if gerr == nil {
		return g, nil, nil
	}
	if notView {
		return nil, nil, err
	}
	return nil, nil, fmt.Errorf("core: target %q is neither a graph nor a view", name)
}

// ExecuteContext parses and runs GVDL statements, materializing the views
// they define, and returns one typed gvdl.Result per completed statement —
// the programmatic form Session.Do and the HTTP server consume. ctx is
// checked between statements: a canceled batch stops before its next
// statement and returns the results of those already executed alongside
// ctx's error (statement execution itself is one uninterruptible
// materialization).
func (e *Engine) ExecuteContext(ctx context.Context, src string) ([]gvdl.Result, error) {
	stmts, err := gvdl.ParseAll(src)
	if err != nil {
		return nil, err
	}
	var out []gvdl.Result
	for _, stmt := range stmts {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		res, err := e.executeStmt(stmt)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (e *Engine) executeStmt(stmt gvdl.Statement) (gvdl.Result, error) {
	if s, ok := stmt.(*gvdl.ApplyMutation); ok {
		// Mutations take the mutation barrier themselves; every other
		// statement is admitted as a run below, so materializations never
		// read graph columns mid-append.
		return e.applyStmt(s)
	}
	if err := e.beginRun(); err != nil {
		return nil, err
	}
	defer e.endRun()
	switch s := stmt.(type) {
	case *gvdl.CreateView:
		col, err := e.materialize(s.Name, s.On, []string{s.Name}, []gvdl.Expr{s.Where})
		if err != nil {
			return nil, err
		}
		return gvdl.ViewCreated{Name: s.Name, Edges: len(col.Stream.Adds[0])}, nil

	case *gvdl.CreateCollection:
		names := make([]string, len(s.Views))
		exprs := make([]gvdl.Expr, len(s.Views))
		for i, v := range s.Views {
			names[i], exprs[i] = v.Name, v.Pred
		}
		col, err := e.materialize(s.Name, s.On, names, exprs)
		if err != nil {
			return nil, err
		}
		return gvdl.CollectionCreated{
			Name:    s.Name,
			Views:   col.Stream.NumViews(),
			Diffs:   col.Stream.TotalDiffs(),
			Elapsed: col.Timings.Total(),
		}, nil

	case *gvdl.CreateAggView:
		av, err := e.evalAgg(s)
		if err != nil {
			return nil, err
		}
		if e.opts.DataDir != "" {
			if err := view.SaveAggregate(e.opts.DataDir, s); err != nil {
				return nil, err
			}
		}
		e.mu.Lock()
		e.aggViews[s.Name] = av
		e.mu.Unlock()
		return gvdl.AggViewCreated{
			Name:       s.Name,
			SuperNodes: len(av.SuperNodes),
			SuperEdges: len(av.SuperEdges),
		}, nil
	}
	return nil, fmt.Errorf("core: unknown statement type %T", stmt)
}

// materialize evaluates a create statement's predicates over its target —
// one for `create view`, one per view for `create view collection` — and
// registers the resulting collection, retaining the predicate sources and
// the parent view's name for incremental maintenance.
func (e *Engine) materialize(name, on string, names []string, exprs []gvdl.Expr) (*view.Collection, error) {
	g, parent, err := e.resolveTarget(on)
	if err != nil {
		return nil, err
	}
	srcs := make([]string, len(exprs))
	for i, x := range exprs {
		srcs[i] = x.String()
	}
	col, err := view.MaterializeFromPredicates(name, g, names, exprs, parent, view.Options{
		Workers: e.opts.Workers,
		Mode:    e.opts.Ordering,
	})
	if err != nil {
		return nil, err
	}
	col.PredSrcs = srcs
	if parent != nil {
		col.On = on
	}
	return col, e.register(col)
}
