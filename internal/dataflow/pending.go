package dataflow

import (
	"hash/maphash"
	"sync"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// pendings buffers undelivered deltas for one operator input, sharded per
// worker and grouped by timestamp. Producers on any worker may push into any
// shard (guarded by the shard's mutex); only the owning worker drains it.
// Each shard is a columnar arrange.Queue whose buckets are batches: push
// copies a borrowed batch in with two bulk appends, take hands a bucket's
// columns to the operator and returns the previous ones to the queue.
type pendings[R comparable] struct {
	s    *Scope         // whose per-worker index take consolidates in
	hash func(R) uint64 // consolidation's record hash
	sh   []pendingShard[R]
}

type pendingShard[R comparable] struct {
	mu  sync.Mutex
	q   arrange.Queue[R]
	cur batch[R] // the batch last taken, the operator's until its next take
}

func newPendings[R comparable](s *Scope) *pendings[R] {
	p := &pendings[R]{
		s:    s,
		hash: func(r R) uint64 { return maphash.Comparable(s.seed, r) },
		sh:   make([]pendingShard[R], s.workers),
	}
	s.recycles(p.release)
	return p
}

// release lets every shard's recycled columns go.
func (p *pendings[R]) release() {
	for w := range p.sh {
		sh := &p.sh[w]
		sh.mu.Lock()
		sh.cur.recs, sh.cur.diffs = nil, nil
		sh.q.Release()
		sh.mu.Unlock()
	}
}

// push copies a batch into its time's bucket on worker w's shard, sizing a
// bucket that must grow by the batch's more.
func (p *pendings[R]) push(w int, b *batch[R]) {
	if len(b.recs) == 0 {
		return
	}
	sh := &p.sh[w]
	sh.mu.Lock()
	sh.q.Push(b.t, b.recs, b.diffs, b.more)
	sh.mu.Unlock()
}

// take removes and returns the batch at time t on worker w, consolidated
// once, completely (empty when absent or when everything cancels). The batch
// stays valid until the next take on the same shard.
func (p *pendings[R]) take(w int, t timestamp.Time) *batch[R] {
	b := p.takeRaw(w, t)
	b.consolidate(p.hash, &p.s.idx[w])
	return b
}

// takeRaw is take without the consolidation, for an operator that folds the
// batch by a coarser rule of its own.
func (p *pendings[R]) takeRaw(w int, t timestamp.Time) *batch[R] {
	sh := &p.sh[w]
	b := &sh.cur
	sh.mu.Lock()
	b.recs, b.diffs = sh.q.Take(t, b.recs, b.diffs)
	sh.mu.Unlock()
	b.t = t
	return b
}

func (p *pendings[R]) has(w int, t timestamp.Time) bool {
	sh := &p.sh[w]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.q.Has(t)
}

// reset drops all buffered deltas on every shard. The emptied columns stay
// with the queue for the next run's buckets.
func (p *pendings[R]) reset() {
	for w := range p.sh {
		sh := &p.sh[w]
		sh.mu.Lock()
		sh.q.Reset()
		sh.mu.Unlock()
	}
}

// min returns the lexicographically smallest pending time on worker w.
func (p *pendings[R]) min(w int) (timestamp.Time, bool) {
	sh := &p.sh[w]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.q.Min()
}
