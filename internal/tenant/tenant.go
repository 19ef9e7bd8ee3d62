// Package tenant makes a shared engine safe and cheap under concurrent
// multi-client load. Middleware wraps core.Session.Do — the narrow waist
// every front-end already goes through — with three cooperating layers:
// per-tenant admission control (concurrency slots, a bounded FIFO wait
// queue, a token-bucket rate limiter), a single-flight result cache keyed by
// collection content and graph version, and differential suffix replay —
// diff-only runs execute on the engine's warm replicas
// (core.RunOptions.Incremental), so a run over a collection that extends an
// already-absorbed prefix by k views steps only the k-view suffix and a
// re-run after a mutation only the delta: the run costs what changed, the
// paper's trick applied to the serving layer.
//
// The middleware is a layer, not a fork: requests it cannot accelerate pass
// through to the wrapped session unchanged, and every result it serves is
// bit-identical to what an uncached execution would return (execution is
// deterministic; only the CacheStatus annotation differs).
package tenant

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"graphsurge/internal/core"
	"graphsurge/internal/obs"
)

// DefaultTenant is the tenant identity used when a request carries none.
const DefaultTenant = "default"

// Options configures the middleware.
type Options struct {
	// Limits bounds each tenant's admission; the zero value disables
	// limiting (every request admits immediately).
	Limits Limits
	// CacheEntries bounds the result cache; 0 disables caching (and with it
	// single-flight dedup and suffix replay).
	CacheEntries int
	// CacheReplicas enables suffix replay when positive; 0 disables it while
	// keeping the exact-hit cache. The value no longer sizes anything: warm
	// replicas live in the engine, under the engine's own bound.
	CacheReplicas int
}

// flight is one in-progress cacheable execution that duplicate requests
// join instead of re-executing.
type flight struct {
	done chan struct{}
	res  *core.RunResult
	err  error
}

// Middleware wraps a session with admission control and the serving cache.
// Safe for concurrent use; a server shares one across all connections.
type Middleware struct {
	eng  *core.Engine
	sess *core.Session
	adm  *admission
	opts Options

	mu      sync.Mutex
	flights map[cacheKey]*flight
	cache   *resultCache // nil when disabled
}

// New builds a middleware over the engine.
func New(eng *core.Engine, opts Options) *Middleware {
	m := &Middleware{
		eng:     eng,
		sess:    eng.NewSession(),
		adm:     newAdmission(opts.Limits),
		opts:    opts,
		flights: make(map[cacheKey]*flight),
	}
	if opts.CacheEntries > 0 {
		m.cache = newResultCache(opts.CacheEntries)
	}
	return m
}

// Do performs one typed request on behalf of a tenant (empty means
// DefaultTenant): rate admission first, then — for run requests — the cache
// and single-flight path, and an execution slot only around work that
// actually executes. Catalog-mutating requests (statements, loads,
// mutations) purge the cache after the inner call, fail closed: a failed
// statement batch may still have redefined artifacts.
func (m *Middleware) Do(ctx context.Context, tenant string, req core.Request) (core.Response, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	if err := m.adm.rateAdmit(tenant); err != nil {
		return nil, err
	}
	if r, ok := req.(*core.RunRequest); ok && m.cache != nil && cacheable(r) {
		return m.doRun(ctx, tenant, r)
	}
	release, err := m.adm.acquireSlot(ctx, tenant)
	if err != nil {
		return nil, err
	}
	defer release()
	resp, err := m.sess.Do(ctx, req)
	if m.cache != nil && mutatesCatalog(req) {
		// Version-keyed entries are already unreachable after a mutation
		// (Graph.Version is monotonic and part of every key); the purge
		// reclaims them eagerly and also covers same-version redefinition.
		// Warm replicas need nothing from here: the engine invalidates its
		// own.
		m.cache.purge()
	}
	return resp, err
}

// Session returns the wrapped session for callers that must bypass the
// middleware (diagnostics, tests).
func (m *Middleware) Session() *core.Session { return m.sess }

// cacheable reports whether a run request's identity is fully describable:
// a wire-form algorithm (no closure computation, which has no stable
// identity) executing on the session's own engine (a custom Runner executes
// elsewhere, outside this engine's version/invalidation domain).
func cacheable(r *core.RunRequest) bool {
	return r.Computation == nil && r.Runner == nil
}

// mutatesCatalog reports whether a request type can redefine graphs, views
// or collections.
func mutatesCatalog(req core.Request) bool {
	switch req.(type) {
	case *core.StatementsRequest, *core.LoadGraphRequest, *core.MutateRequest:
		return true
	}
	return false
}

// doRun is the cached run path.
func (m *Middleware) doRun(ctx context.Context, tenant string, r *core.RunRequest) (core.Response, error) {
	key, err := m.snapshotKey(r)
	if err != nil {
		return nil, err
	}

	for {
		if res := m.cache.get(key); res != nil {
			obs.M.CacheHits.Inc()
			return stamped(res, "hit"), nil
		}

		// Single flight: the first request under a key executes; concurrent
		// duplicates wait for its result. The leader stores into the cache
		// before the flight closes, so a post-flight re-check never misses.
		m.mu.Lock()
		if f, ok := m.flights[key]; ok {
			m.mu.Unlock()
			obs.M.CacheDedup.Inc()
			select {
			case <-f.done:
				if f.err == nil {
					return stamped(f.res, "dedup"), nil
				}
				if ctxErr(f.err) && ctx.Err() == nil {
					// The leader's own context died, not ours: its failure
					// says nothing about the run. Go around — cache check,
					// then lead or join whoever got there first.
					continue
				}
				return nil, f.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		m.flights[key] = f
		m.mu.Unlock()

		res, err := m.lead(ctx, tenant, r, key)
		f.res, f.err = res, err
		m.mu.Lock()
		delete(m.flights, key)
		m.mu.Unlock()
		close(f.done)
		if err != nil {
			return nil, err
		}
		return stamped(res, res.CacheStatus), nil
	}
}

// ctxErr reports whether an error is a context cancellation or deadline.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// lead executes a run as a flight's leader: acquire an execution slot, run on
// the wrapped session, and store the result.
func (m *Middleware) lead(ctx context.Context, tenant string, r *core.RunRequest, key cacheKey) (*core.RunResult, error) {
	release, err := m.adm.acquireSlot(ctx, tenant)
	if err != nil {
		return nil, err
	}
	defer release()

	res, status, err := m.execute(ctx, r)
	if err != nil {
		return nil, err
	}
	stored := res.CloneShared()
	stored.CacheStatus = status
	m.cache.put(key, stored)
	return stored, nil
}

// execute runs the request on the wrapped session. With replay enabled a
// diff-only run executes on the engine's matching warm replica, which steps
// only what it has not absorbed; the run is a replay when the result reports
// a reused replica and a miss — full cost now, delta cost for every
// extension after — when the replica was built cold.
func (m *Middleware) execute(ctx context.Context, r *core.RunRequest) (*core.RunResult, string, error) {
	replay := m.opts.CacheReplicas > 0 && r.Options.Mode == core.DiffOnly
	if replay {
		cp := *r
		cp.Options.Incremental = true
		r = &cp
	}
	resp, err := m.sess.Do(ctx, r)
	if err != nil {
		return nil, "", err
	}
	res := resp.(*core.RunResult)
	if replay && res.Incremental {
		obs.M.CacheReplays.Inc()
		return res, "replay", nil
	}
	obs.M.CacheMisses.Inc()
	return res, "miss", nil
}

// snapshotKey resolves the collection and computes the cache identity as one
// consistent snapshot under the engine's run barrier: the lookup, the graph
// version, and the stream fingerprint are all read with no mutation in
// flight, so the key names exactly the bytes an execution at that version
// sees (a mutation landing in between only files the result under a version
// no later request asks for).
func (m *Middleware) snapshotKey(r *core.RunRequest) (key cacheKey, err error) {
	specJSON, err := json.Marshal(r.Algorithm)
	if err != nil {
		return key, err
	}
	// Resolve the engine's worker default before normalizing, so Workers: 0
	// and an explicit Workers: <engine default> share a key — they run the
	// same dataflow.
	opts := r.Options
	if opts.Workers == 0 {
		opts.Workers = m.eng.Options().Workers
	}
	err = m.eng.Admit(func() error {
		c, err := m.eng.LookupCollection(r.Collection)
		if err != nil {
			return err
		}
		if c.Stream == nil || c.Stream.NumViews() == 0 {
			return fmt.Errorf("tenant: collection %q has no views", r.Collection)
		}
		chain := c.Stream.ChainFingerprints()
		key = cacheKey{
			collection: c.Name,
			version:    c.Version,
			chain:      chain[len(chain)-1],
			spec:       string(specJSON),
			opts:       optionsKey(opts),
		}
		return nil
	})
	return key, err
}

// stamped hands out a per-caller copy of a stored result carrying the
// lookup's cache status — stored entries stay immutable.
func stamped(res *core.RunResult, status string) *core.RunResult {
	cp := res.CloneShared()
	cp.CacheStatus = status
	return cp
}
