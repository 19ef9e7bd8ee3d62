// Package arrange keeps indexed, compacted per-key update histories, the
// paper's §5 arrangements, and the per-key stores they are built on. A
// KeyTable gives a shard's keys dense slots; a SpanSlab keeps one stretch of
// a flat array per slot, grown by one rule. A Trace is a per-key history on
// the two: per key, a span of (time, value, diff) entries, consolidated as
// they arrive and clamped to the compaction frontier lazily, the next time
// the key is appended to or read after the frontier moved. Dropping all
// state truncates the columns in place, so a reset trace reruns into the
// arrays its last run grew.
//
// The totally ordered stores, the schedules and the linear reduces in
// package dataflow keep their per-key state in the same two types, and clamp
// by the same rule (ClampTime).
package arrange

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"graphsurge/internal/timestamp"
)

// Entry is one (time, value, diff) row of a key's history.
type Entry[V comparable] struct {
	T timestamp.Time
	V V
	D int64
}

// Trace is an arranged multiset history: per key, its (time, value, diff)
// entries, in the key's span of one slab. A key's entries hold each (time,
// value) at most once with a diff that is not zero, in time order, once the
// key has been touched since the frontier last moved; until then its times
// may sit below the frontier, which is indistinguishable to callers that only
// Join or Leq-filter them against times at or above it. A trace belongs to
// one worker: its methods must not race with each other, reads included,
// since a read settles the key it reads.
type Trace[K comparable, V comparable] struct {
	seed     maphash.Seed
	keys     KeyTable[K]
	adv      []uint32 // per slot: the frontier its entries were last settled at
	slab     SpanSlab[Entry[V]]
	frontier uint32   // 1 + the outer coordinate times clamp to; 0 = none
	idx      []uint32 // settle's index, recycled across keys
}

// NewTrace creates an empty trace.
func NewTrace[K comparable, V comparable]() *Trace[K, V] {
	return &Trace[K, V]{seed: maphash.MakeSeed()}
}

// NewPeer creates an empty trace that hashes keys exactly as peer does, so
// one Hash serves KeyHashed and AppendHashed on both (a reduce's input and
// output, a join's two sides).
func NewPeer[K comparable, V comparable, W comparable](peer *Trace[K, W]) *Trace[K, V] {
	return &Trace[K, V]{seed: peer.seed}
}

// Hash returns k's hash in this trace and its peers.
func (tr *Trace[K, V]) Hash(k K) uint64 { return maphash.Comparable(tr.seed, k) }

// Append records one update.
func (tr *Trace[K, V]) Append(k K, v V, t timestamp.Time, d int64) {
	tr.AppendHashed(tr.Hash(k), k, v, t, d)
}

// AppendHashed is Append for a caller that already holds hk = Hash(k). The
// update adds to the key's entry at (t, v), which a trace fed in time order
// finds among its last entries, and an entry that comes to zero is dropped.
func (tr *Trace[K, V]) AppendHashed(hk uint64, k K, v V, t timestamp.Time, d int64) {
	if d == 0 {
		return
	}
	s := tr.keys.Slot(hk, k)
	if int(s) == len(tr.adv) {
		tr.adv = append(tr.adv, tr.frontier)
		tr.slab.Add()
	} else {
		tr.settle(s)
	}
	es := tr.slab.At(s)
	for j := len(es) - 1; j >= 0 && !es[j].T.LexLess(t); j-- {
		if es[j].T == t && es[j].V == v {
			if es[j].D += d; es[j].D == 0 {
				copy(es[j:], es[j+1:])
				tr.slab.Cut(s, len(es)-1)
			}
			return
		}
	}
	tr.slab.Push(s, Entry[V]{t, v, d})
}

// Advance moves the compaction frontier: times with Outer < outer clamp to
// outer. It only records the frontier; each key is clamped the next time it
// is touched.
func (tr *Trace[K, V]) Advance(outer uint32) {
	tr.frontier = max(tr.frontier, outer+1)
}

// settle clamps slot s's entries to the frontier, once per frontier move,
// merges those that come to share (time, value) and drops those that cancel,
// leaving them in time order. Entries of one time meet through tr.idx, an
// open-addressing index on their values' hashes (batch.consolidate's idiom),
// so a hub key's many values at one time settle in one pass.
func (tr *Trace[K, V]) settle(s uint32) {
	if tr.adv[s] >= tr.frontier {
		return
	}
	tr.adv[s] = tr.frontier
	es := tr.slab.At(s)
	for i := range es {
		es[i].T = ClampTime(es[i].T, tr.frontier-1)
	}
	if len(es) < 2 {
		return
	}
	slices.SortStableFunc(es, func(a, b Entry[V]) int { return LexCmp(a.T, b.T) })
	m := 0
	for i, j := 0, 0; i < len(es); i = j {
		for j = i + 1; j < len(es) && es[j].T == es[i].T; j++ {
		}
		m = tr.combine(es, i, j, m)
	}
	tr.slab.Cut(s, m)
}

// combine writes the entries es[i:j], all of one time, consolidated by value
// to es[m:] (m ≤ i) and returns the end of what it wrote.
func (tr *Trace[K, V]) combine(es []Entry[V], i, j, m int) int {
	if j-i == 1 {
		es[m] = es[i]
		return m + 1
	}
	width := bits.Len(uint(2 * (j - i)))
	if cap(tr.idx) < 1<<width {
		tr.idx = make([]uint32, 1<<width)
	}
	tab, at := tr.idx[:1<<width], m
	clear(tab)
	for _, e := range es[i:j] {
		for p := maphash.Comparable(tr.seed, e.V) >> (64 - width); ; p++ {
			if q := &tab[p&uint64(len(tab)-1)]; *q == 0 {
				*q = uint32(m - at + 1)
				es[m], m = e, m+1
				break
			} else if o := &es[at+int(*q)-1]; o.V == e.V {
				o.D += e.D
				break
			}
		}
	}
	n := at
	for _, e := range es[at:m] {
		if e.D != 0 {
			es[n], n = e, n+1
		}
	}
	return n
}

// Entries returns k's entries, settled, valid until the trace next changes.
// hk = Hash(k).
func (tr *Trace[K, V]) Entries(hk uint64, k K) []Entry[V] {
	s, ok := tr.keys.Find(hk, k)
	if !ok {
		return nil
	}
	tr.settle(s)
	return tr.slab.At(s)
}

// Key visits every (value, time, diff) entry recorded for k and returns the
// number of entries visited.
func (tr *Trace[K, V]) Key(k K, yield func(v V, t timestamp.Time, d int64)) int {
	return tr.KeyHashed(tr.Hash(k), k, yield)
}

// KeyHashed is Key for a caller that already holds hk = Hash(k).
func (tr *Trace[K, V]) KeyHashed(hk uint64, k K, yield func(v V, t timestamp.Time, d int64)) int {
	es := tr.Entries(hk, k)
	for _, e := range es {
		yield(e.V, e.T, e.D)
	}
	return len(es)
}

// Len returns the number of entries held.
func (tr *Trace[K, V]) Len() int { return tr.slab.Live() }

// Reset drops all state, keeping every column for the next run.
func (tr *Trace[K, V]) Reset() {
	tr.keys.Reset()
	tr.adv = tr.adv[:0]
	tr.slab.Reset()
	tr.frontier = 0
}

// Snapshot returns an independent copy of the trace, O(its entries). The
// frozen benchmark's arrangement probe is its only caller.
func (tr *Trace[K, V]) Snapshot() *Trace[K, V] {
	return &Trace[K, V]{
		seed: tr.seed,
		keys: KeyTable[K]{
			tab: slices.Clone(tr.keys.tab), shift: tr.keys.shift,
			hks: slices.Clone(tr.keys.hks), keys: slices.Clone(tr.keys.keys),
		},
		adv: slices.Clone(tr.adv),
		slab: SpanSlab[Entry[V]]{
			spans: slices.Clone(tr.slab.spans), buf: slices.Clone(tr.slab.buf), live: tr.slab.live,
		},
		frontier: tr.frontier,
	}
}

// Batches reports 1 for a trace that holds entries and 0 for an empty one:
// the batch count a trace of one canonical batch reported, kept for the
// frozen benchmark's arrangement probe.
func (tr *Trace[K, V]) Batches() int {
	if tr.Len() > 0 {
		return 1
	}
	return 0
}
