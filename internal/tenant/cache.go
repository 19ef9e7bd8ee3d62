package tenant

import (
	"container/list"
	"encoding/json"
	"sync"

	"graphsurge/internal/core"
	"graphsurge/internal/obs"
)

// The result cache. It is keyed by content, not by name alone: a cache key
// binds the collection's name, the graph version its difference stream was
// read at, a chained fingerprint of the stream itself
// (view.DiffStream.ChainFingerprints), the computation's wire identity, and
// the normalized run options. Mutations bump the graph version, so every
// pre-mutation entry is unreachable the instant a mutation commits — the
// version key is the fail-closed invalidation; the explicit purge on mutating
// requests just reclaims the memory sooner. The stream fingerprint catches
// same-name redefinition at an unchanged version.

// cacheKey identifies one cacheable run result. All fields are comparable
// strings/scalars so the key works as a map key directly.
type cacheKey struct {
	collection string
	version    uint64
	chain      uint64 // chained fingerprint over the whole difference stream
	spec       string // analytics.Spec wire identity, canonical JSON
	opts       string // normalized RunOptions, canonical JSON
}

// normalizeKeyOptions projects RunOptions onto its cache-relevant fields.
// The OnSegment hook is an observability extension that never changes a
// result — json.Marshal already excludes it (it is `json:"-"`), and it is
// nil-ed here so the exclusion is explicit rather than incidental. Workers
// and Parallelism clamp to the engine's floor of 1 exactly as core's
// normalizeRunOptions does, so the zero value and an explicit 1 share an
// equivalence class. Every remaining field stays in the
// key: Mode and Parallelism don't change FinalResults, but they do change
// the per-view stats a caller sees, and a cache must return what the
// request asked for.
func normalizeKeyOptions(o core.RunOptions) core.RunOptions {
	o.OnSegment = nil
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// optionsKey renders the normalized options as the cache key's opts field.
func optionsKey(o core.RunOptions) string {
	b, err := json.Marshal(normalizeKeyOptions(o))
	if err != nil {
		// RunOptions is a plain struct of scalars; Marshal cannot fail.
		panic(err)
	}
	return string(b)
}

// resultCache is an LRU map from cacheKey to a stored *core.RunResult.
// Stored entries are canonical and immutable — lookups hand out
// CloneShared copies so per-response CacheStatus stamps never write into
// the cache.
type resultCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	res *core.RunResult
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, order: list.New(), entries: make(map[cacheKey]*list.Element)}
}

func (c *resultCache) get(key cacheKey) *core.RunResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

func (c *resultCache) put(key cacheKey, res *core.RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		obs.M.CacheEvictions.Inc()
	}
}

// purge drops every entry (mutating request committed — fail closed).
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.order.Init()
	c.entries = make(map[cacheKey]*list.Element)
	obs.M.CacheEvictions.Add(int64(n))
}
