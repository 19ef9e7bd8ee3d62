package core

import (
	"context"
	"fmt"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/view"
)

// This file is Graphsurge's typed request API. A Session is a per-client
// handle over a shared Engine whose single entry point — Do(ctx, Request) —
// covers every operation the CLI performs: executing GVDL statements,
// loading graphs, running computations over collections and individual
// views, and reading pool statistics. Requests and responses are typed
// values rather than pre-formatted text, so programmatic callers consume
// structure directly, ctx cancels a run end to end (segment dispatch, pool
// waits, cluster RPCs), and the CLI and the HTTP server (internal/server)
// are both thin renderers over the same code path.

// Request is a typed operation a Session can perform. The concrete types —
// StatementsRequest, LoadGraphRequest, RunRequest, RunViewRequest,
// MutateRequest, PoolStatsRequest — are plain structs with JSON names, so
// the same values travel over HTTP unchanged.
type Request interface{ isRequest() }

// Response is the typed outcome of a Request. Each Request documents its
// Response type.
type Response interface{ isResponse() }

// CollectionRunner executes a computation over a materialized collection —
// the seam between a Session and where a run actually executes. The local
// Engine implements it (RunOn); the cluster Coordinator implements it by
// sharding across workers. A RunRequest carrying no Runner executes on the
// session's engine.
type CollectionRunner interface {
	RunOn(ctx context.Context, col *view.Collection, comp analytics.Computation, opts RunOptions) (*RunResult, error)
}

// StatementsRequest executes a batch of GVDL statements. Response:
// *StatementsResponse (partial on error — statements completed before the
// failure are reported alongside it).
type StatementsRequest struct {
	Src string `json:"src"`
}

func (*StatementsRequest) isRequest() {}

// StatementsResponse carries one typed result per completed statement.
type StatementsResponse struct {
	Results []gvdl.Result `json:"results"`
}

func (*StatementsResponse) isResponse() {}

// LoadGraphRequest imports a graph from CSV files on the engine's
// filesystem and registers it. Response: *GraphLoaded.
type LoadGraphRequest struct {
	Name string `json:"name"`
	// NodesPath is optional; EdgesPath is required.
	NodesPath string `json:"nodesPath,omitempty"`
	EdgesPath string `json:"edgesPath"`
}

func (*LoadGraphRequest) isRequest() {}

// GraphLoaded reports a registered graph.
type GraphLoaded struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

func (*GraphLoaded) isResponse() {}

// RunRequest executes a computation over a named materialized collection.
// Response: *RunResult.
//
// The computation is named by Algorithm (the analytics wire spec — the same
// identity the cluster ships to workers), so the request is serializable;
// an embedding caller holding a custom Computation sets Computation
// instead, which takes precedence and never travels over the wire. Runner
// selects where the run executes (nil = the session's engine).
type RunRequest struct {
	Collection string         `json:"collection"`
	Algorithm  analytics.Spec `json:"algorithm"`
	Options    RunOptions     `json:"options"`

	Computation analytics.Computation `json:"-"`
	Runner      CollectionRunner      `json:"-"`
}

func (*RunRequest) isRequest() {}

func (*RunResult) isResponse() {}

// RunViewRequest executes a computation once over an individual filtered
// view. Response: *ViewRunResult.
type RunViewRequest struct {
	View       string         `json:"view"`
	Algorithm  analytics.Spec `json:"algorithm"`
	Workers    int            `json:"workers,omitempty"`
	WeightProp string         `json:"weightProp,omitempty"`

	Computation analytics.Computation `json:"-"`
}

func (*RunViewRequest) isRequest() {}

// ViewRunResult reports a single-view run: identity, the view's edge count,
// the measured runtime, and the per-vertex results.
type ViewRunResult struct {
	Computation string        `json:"computation"`
	View        string        `json:"view"`
	Edges       int           `json:"edges"`
	Duration    time.Duration `json:"duration"`

	Results map[analytics.VertexValue]int64 `json:"-"`

	work []int64 // per-worker work counters of the run's dataflow
}

func (*ViewRunResult) isResponse() {}

// EdgeChange is one edge in a mutation request: endpoints are the graph's
// internal dense node IDs; Props carries a value for every edge property on
// inserts (decoded JSON values — numbers for integer properties must be
// integral) and is ignored on deletes.
type EdgeChange struct {
	Src   uint64         `json:"src"`
	Dst   uint64         `json:"dst"`
	Props map[string]any `json:"props,omitempty"`
}

// MutateRequest applies one transactional mutation batch to a base graph:
// the inserts and deletes commit together, and every materialized view,
// collection and aggregate view over the graph is incrementally maintained
// before the response returns. Response: *MutationApplied.
type MutateRequest struct {
	Graph   string       `json:"graph"`
	Inserts []EdgeChange `json:"inserts,omitempty"`
	Deletes []EdgeChange `json:"deletes,omitempty"`
}

func (*MutateRequest) isRequest() {}

// MutationApplied reports a committed mutation batch: the graph's new
// monotonic version and how many edges and maintained artifacts the batch
// touched.
type MutationApplied struct {
	Graph      string `json:"graph"`
	Version    uint64 `json:"version"`
	Inserted   int    `json:"inserted"`
	Deleted    int    `json:"deleted"`
	Maintained int    `json:"maintained"`
}

func (*MutationApplied) isResponse() {}

// PoolStatsRequest reads the engine's warm runner pool statistics.
// Response: *PoolStatsResponse.
type PoolStatsRequest struct{}

func (*PoolStatsRequest) isRequest() {}

// PoolStatsResponse carries every pool's stats in deterministic order.
type PoolStatsResponse struct {
	Pools []PoolStat `json:"pools"`
}

func (*PoolStatsResponse) isResponse() {}

// Session is a per-client handle over a shared Engine. Sessions are cheap
// (a Session is a view, not a copy — all catalog and pool state stays on
// the engine) and safe for concurrent use; a server allocates one per
// connection or per request as it pleases.
type Session struct {
	eng *Engine
}

// NewSession opens a client handle on the engine.
func (e *Engine) NewSession() *Session { return &Session{eng: e} }

// Engine returns the engine the session is a handle over.
func (s *Session) Engine() *Engine { return s.eng }

// Do performs one typed request. ctx bounds the whole operation: statement
// batches stop between statements, collection runs cancel segment dispatch
// and pool waits (see Engine.RunCollection), cluster runs additionally
// abandon in-flight worker RPCs. Do never interprets the response — it
// returns the typed value for the caller (CLI, HTTP server, embedding
// code) to render.
func (s *Session) Do(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch r := req.(type) {
	case *StatementsRequest:
		results, err := s.eng.ExecuteContext(ctx, r.Src)
		return &StatementsResponse{Results: results}, err

	case *LoadGraphRequest:
		if r.Name == "" || r.EdgesPath == "" {
			return nil, fmt.Errorf("core: load request needs a graph name and an edges path")
		}
		g, err := s.eng.LoadGraphCSV(r.Name, r.NodesPath, r.EdgesPath)
		if err != nil {
			return nil, err
		}
		return &GraphLoaded{Name: g.Name, Nodes: g.NumNodes, Edges: g.NumEdges()}, nil

	case *RunRequest:
		comp, err := resolveComp(r.Computation, r.Algorithm)
		if err != nil {
			return nil, err
		}
		col, err := s.eng.LookupCollection(r.Collection)
		if err != nil {
			return nil, err
		}
		runner := r.Runner
		if runner == nil || r.Options.Incremental {
			// Incremental runs always execute on the session's engine: the
			// warm replica state lives there, and a cluster runner has no
			// equivalent.
			runner = s.eng
		}
		res, err := runner.RunOn(ctx, col, comp, r.Options)
		if err != nil {
			// A literal nil Response, never a typed-nil *RunResult wrapped in
			// a non-nil interface — callers may check resp != nil.
			return nil, err
		}
		return res, nil

	case *RunViewRequest:
		comp, err := resolveComp(r.Computation, r.Algorithm)
		if err != nil {
			return nil, err
		}
		col, err := s.eng.lookupView(r.View)
		if err != nil {
			return nil, err
		}
		workers := r.Workers
		if workers == 0 {
			workers = s.eng.opts.Workers
		}
		// Under the run barrier: view maintenance rewrites the edge list in
		// place.
		var res *ViewRunResult
		err = s.eng.Admit(func() (err error) {
			res, err = RunView(ctx, col, comp, workers, r.WeightProp)
			return err
		})
		if err != nil {
			return nil, err
		}
		return res, nil

	case *MutateRequest:
		res, err := s.eng.Mutate(r)
		if err != nil {
			return nil, err
		}
		return res, nil

	case *PoolStatsRequest:
		return &PoolStatsResponse{Pools: s.eng.PoolStats()}, nil
	}
	return nil, fmt.Errorf("core: unknown request type %T", req)
}

// resolveComp picks the request's computation: an explicitly supplied
// Computation wins; otherwise the algorithm spec resolves through the same
// registry cluster workers use.
func resolveComp(comp analytics.Computation, spec analytics.Spec) (analytics.Computation, error) {
	if comp != nil {
		return comp, nil
	}
	return spec.Resolve()
}
