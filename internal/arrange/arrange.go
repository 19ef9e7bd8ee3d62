// Package arrange keeps indexed, compacted per-key update histories, the
// paper's §5 arrangements, and the per-key stores they are built on. A
// shard's key space is one Keys: a KeyTable that gives each key a dense
// slot, and per slot the compaction frontier the slot's stores were last
// clamped at. Every per-key store of the shard lives at that slot, as a
// column or a span of a SpanSlab: a History keeps a key's (time, value,
// diff) entries, consolidated as they arrive, and package dataflow's
// schedules, linear rows and total indexes keep theirs. Advance only
// records a new frontier; the owner clamps the histories and linear rows at
// a slot in one place, the slot's first access after the frontier moved
// (Stale), each by SpanSlab.Clamp's one rule. Dropping all state truncates
// the columns in place, so a reset shard reruns into the arrays its last run
// grew. A Trace is a key space with one History, the arrangement on its own.
package arrange

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"graphsurge/internal/timestamp"
)

// seed hashes a Trace's keys and the values History.Clamp meets. Either
// hash only places entries in an index, so one seed serves every shard.
var seed = maphash.MakeSeed()

// Entry is one (time, value, diff) row of a key's history.
type Entry[V comparable] struct {
	T timestamp.Time
	V V
	D int64
}

// Keys is a shard's key space: a KeyTable, and per slot the frontier the
// slot's stores were last clamped at. The owner asks Stale at each access
// of a slot, before it reads or adds to any store there.
type Keys[K comparable] struct {
	KeyTable[K]
	at       []uint32 // per slot: the frontier its stores were last clamped at
	frontier uint32   // 1 + the outer coordinate times clamp to; 0 = none
}

// Slot returns k's slot, where hk is k's hash, adding one the first time k
// is seen. A new slot holds nothing to clamp.
func (ks *Keys[K]) Slot(hk uint64, k K) uint32 {
	s := ks.KeyTable.Slot(hk, k)
	if int(s) == len(ks.at) {
		ks.at = append(ks.at, ks.frontier)
	}
	return s
}

// Advance moves the compaction frontier: times with Outer < outer clamp to
// outer. It only records the frontier; each slot is clamped at its next
// access.
func (ks *Keys[K]) Advance(outer uint32) { ks.frontier = max(ks.frontier, outer+1) }

// Stale reports whether slot s was last clamped below the frontier. If it
// was, it marks the slot clamped and returns the outer coordinate the owner
// must clamp every store at the slot to now.
func (ks *Keys[K]) Stale(s uint32) (uint32, bool) {
	if ks.at[s] >= ks.frontier {
		return 0, false
	}
	ks.at[s] = ks.frontier
	return ks.frontier - 1, true
}

// Reset forgets every key and the frontier, keeping the columns' capacity.
func (ks *Keys[K]) Reset() {
	ks.KeyTable.Reset()
	ks.at, ks.frontier = ks.at[:0], 0
}

// History is a multiset history per slot of its owner's key space: a span
// of (time, value, diff) entries. A clamped slot's entries hold each (time,
// value) at most once with a diff that is not zero, in time order; until a
// slot is clamped after the frontier moves, its times may sit below the
// frontier, which is indistinguishable to callers that only Join or
// Leq-filter them against times at or above it. The zero History is empty.
type History[V comparable] struct {
	SpanSlab[Entry[V]]
	idx []uint32 // Clamp's index, recycled across slots
}

// Add records an update, d ≠ 0, at slot s, which is clamped. It adds to the
// slot's entry at (t, v), which a history fed in time order finds among its
// last entries, and an entry that comes to zero is dropped.
func (h *History[V]) Add(s uint32, v V, t timestamp.Time, d int64) {
	es := h.At(s)
	for j := len(es) - 1; j >= 0 && !es[j].T.LexLess(t); j-- {
		if es[j].T == t && es[j].V == v {
			if es[j].D += d; es[j].D == 0 {
				copy(es[j:], es[j+1:])
				h.Cut(s, len(es)-1)
			}
			return
		}
	}
	h.Push(s, Entry[V]{t, v, d})
}

// Clamp clamps slot s's entries to outer, merges those that come to share
// (time, value) and drops those that cancel.
func (h *History[V]) Clamp(s, outer uint32) {
	h.SpanSlab.Clamp(s, outer, func(e Entry[V]) timestamp.Time { return e.T }, h.combine)
}

// combine writes the entries es[i:j], whose clamped time is t, consolidated
// by value at t to es[m:] (m ≤ i) and returns the end of what it wrote. The
// entries meet through h.idx, an open-addressing index on their values'
// hashes (batch.consolidate's idiom), so a hub key's many values at one
// time settle in one pass.
func (h *History[V]) combine(es []Entry[V], i, j, m int, t timestamp.Time) int {
	if j-i == 1 {
		es[m], es[m].T = es[i], t
		return m + 1
	}
	width := bits.Len(uint(2 * (j - i)))
	if cap(h.idx) < 1<<width {
		h.idx = make([]uint32, 1<<width)
	}
	tab, at := h.idx[:1<<width], m
	clear(tab)
	for _, e := range es[i:j] {
		e.T = t
		for p := maphash.Comparable(seed, e.V) >> (64 - width); ; p++ {
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

// Trace is an arrangement on its own: a key space with one History. A
// trace belongs to one worker: its methods must not race with each other,
// reads included, since a read clamps the key it reads.
type Trace[K comparable, V comparable] struct {
	keys Keys[K]
	h    History[V]
}

// NewTrace creates an empty trace.
func NewTrace[K comparable, V comparable]() *Trace[K, V] { return &Trace[K, V]{} }

// Append records one update.
func (tr *Trace[K, V]) Append(k K, v V, t timestamp.Time, d int64) {
	if d == 0 {
		return
	}
	s := tr.keys.Slot(maphash.Comparable(seed, k), k)
	tr.clamp(s)
	tr.h.Add(s, v, t, d)
}

// Advance moves the compaction frontier: times with Outer < outer clamp to
// outer. It only records the frontier; each key is clamped the next time it
// is touched.
func (tr *Trace[K, V]) Advance(outer uint32) { tr.keys.Advance(outer) }

// Key visits every (value, time, diff) entry recorded for k and returns the
// number of entries visited.
func (tr *Trace[K, V]) Key(k K, yield func(v V, t timestamp.Time, d int64)) int {
	s, ok := tr.keys.Find(maphash.Comparable(seed, k), k)
	if !ok {
		return 0
	}
	tr.clamp(s)
	es := tr.h.At(s)
	for _, e := range es {
		yield(e.V, e.T, e.D)
	}
	return len(es)
}

// clamp clamps slot s's entries on its first access after the frontier
// moved.
func (tr *Trace[K, V]) clamp(s uint32) {
	if outer, stale := tr.keys.Stale(s); stale {
		tr.h.Clamp(s, outer)
	}
}

// Len returns the number of entries held.
func (tr *Trace[K, V]) Len() int { return tr.h.Live() }

// Snapshot returns an independent copy of the trace, O(its entries). The
// frozen benchmark's arrangement probe is its only caller.
func (tr *Trace[K, V]) Snapshot() *Trace[K, V] {
	kt := &tr.keys.KeyTable
	return &Trace[K, V]{
		keys: Keys[K]{
			KeyTable: KeyTable[K]{tab: slices.Clone(kt.tab), shift: kt.shift, hks: slices.Clone(kt.hks), keys: slices.Clone(kt.keys)},
			at:       slices.Clone(tr.keys.at), frontier: tr.keys.frontier,
		},
		h: History[V]{SpanSlab: SpanSlab[Entry[V]]{
			spans: slices.Clone(tr.h.spans), buf: slices.Clone(tr.h.buf), live: tr.h.live,
		}},
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
