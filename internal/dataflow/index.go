package dataflow

import (
	"math/bits"

	"graphsurge/internal/timestamp"
)

// keyTable maps a shard's keys to dense slots by open addressing on the top
// bits of the key hash. Its owner keeps per-key state in columns of its own,
// indexed by slot, with no per-key heap object.
type keyTable[K comparable] struct {
	tab   []uint32 // 1 + slot; 0 is empty
	shift uint8
	hks   []uint64 // per slot
	keys  []K
}

// slot returns k's slot. A key seen for the first time gets the next one,
// len(hks) - 1 after the call; the owner grows its columns to match.
func (kt *keyTable[K]) slot(hk uint64, k K) uint32 {
	if 4*len(kt.hks) >= 3*len(kt.tab) {
		kt.tab = make([]uint32, max(2*len(kt.tab), 64))
		kt.shift = uint8(65 - bits.Len(uint(len(kt.tab))))
		for j, h := range kt.hks {
			*kt.probe(h, func(uint32) bool { return false }) = uint32(j + 1)
		}
	}
	s := kt.probe(hk, func(j uint32) bool { return kt.hks[j] == hk && kt.keys[j] == k })
	if *s == 0 {
		*s = uint32(len(kt.hks) + 1)
		kt.hks, kt.keys = append(kt.hks, hk), append(kt.keys, k)
	}
	return *s - 1
}

// find returns k's slot, if k has one.
func (kt *keyTable[K]) find(hk uint64, k K) (uint32, bool) {
	if len(kt.tab) == 0 {
		return 0, false
	}
	s := *kt.probe(hk, func(j uint32) bool { return kt.hks[j] == hk && kt.keys[j] == k })
	return s - 1, s != 0
}

// probe returns the table entry holding the slot is matches, else an empty one.
func (kt *keyTable[K]) probe(hk uint64, is func(slot uint32) bool) *uint32 {
	for p := hk >> kt.shift; ; p++ {
		if s := &kt.tab[p&uint64(len(kt.tab)-1)]; *s == 0 || is(*s-1) {
			return s
		}
	}
}

// reset forgets every key, keeping the columns' capacity.
func (kt *keyTable[K]) reset() {
	clear(kt.tab)
	kt.hks, kt.keys = kt.hks[:0], kt.keys[:0]
}

// span is one key's stretch of a slab its shard's keys share:
// slab[off:off+n], with room for c.
type span struct{ off, n, c uint32 }

func stretch[E any](slab []E, sp span) []E { return slab[sp.off : sp.off+sp.n] }

// extend appends e to sp's stretch. A full stretch moves to the slab's end
// with twice the room (least, the first time), leaving its old room unused
// until the slab is truncated.
func extend[E any](slab *[]E, sp *span, e E, least uint32) {
	if sp.n == sp.c {
		off := uint32(len(*slab))
		*slab = append(*slab, stretch(*slab, *sp)...)
		sp.off, sp.c = off, max(2*sp.c, least)
		*slab = append(*slab, make([]E, sp.c-sp.n)...)
	}
	(*slab)[sp.off+sp.n] = e
	sp.n++
}

// totalIndex is one worker's accumulated state of a collection whose times
// are totally ordered, (version, 0): per key, its (value, count) pairs whose
// counts do not cancel, and no time column. Such a collection is its
// accumulated multiset, so an update is O(the key's pairs) and nothing is
// ever merged. A key's pairs are a span of one flat slab; a reset truncates
// every column in place, so a reset index reruns without allocating.
//
// Updates come in batches, each opened by begin, in which every (key, value)
// appears at most once, as after consolidation.
type totalIndex[K comparable, V comparable] struct {
	keyTable[K]
	runs  []pairRun // per slot
	slab  []VD[V]
	epoch uint32 // the open batch
}

// pairRun is one key's pairs. The first old of them were there before the
// batch the key was last updated in (epoch); the rest came with it.
type pairRun struct {
	span
	old, epoch uint32
}

// begin opens a batch.
func (ix *totalIndex[K, V]) begin() { ix.epoch++ }

// slot returns k's slot, where hk is k's hash, adding an empty one the
// first time k is seen.
func (ix *totalIndex[K, V]) slot(hk uint64, k K) uint32 {
	s := ix.keyTable.slot(hk, k)
	if int(s) == len(ix.runs) {
		ix.runs = append(ix.runs, pairRun{})
	}
	return s
}

// add folds d into the count of (k, v), where hk is k's hash, and returns
// the count before.
func (ix *totalIndex[K, V]) add(hk uint64, k K, v V, d int64) int64 {
	return ix.addAt(ix.slot(hk, k), v, d)
}

// addAt is add for the key in slot s. A value is looked for only among the
// pairs that were there before the batch: a batch adds each value once, so a
// whole view's values arriving at a key in one batch cost linear, not
// quadratic, time.
func (ix *totalIndex[K, V]) addAt(s uint32, v V, d int64) int64 {
	r := &ix.runs[s]
	if r.epoch != ix.epoch {
		r.epoch, r.old = ix.epoch, r.n
	}
	ps := stretch(ix.slab, r.span)
	for i := range ps[:r.old] {
		if ps[i].V != v {
			continue
		}
		was := ps[i].D
		if ps[i].D += d; ps[i].D == 0 {
			// The last old pair fills the hole, and the batch's last pair
			// its place, so the batch's pairs stay last.
			r.old--
			ps[i], ps[r.old] = ps[r.old], ps[r.n-1]
			r.n--
		}
		return was
	}
	extend(&ix.slab, &r.span, VD[V]{v, d}, 1)
	return 0
}

// pairs returns k's pairs, valid until the next add. hk is k's hash.
func (ix *totalIndex[K, V]) pairs(hk uint64, k K) []VD[V] {
	s, ok := ix.find(hk, k)
	if !ok {
		return nil
	}
	return stretch(ix.slab, ix.runs[s].span)
}

// key visits k's pairs, each as a count at the beginning of time, and
// returns how many it visited: a join pairs a delta at t with them at t
// itself. hk is k's hash.
func (ix *totalIndex[K, V]) key(hk uint64, k K, yield func(v V, t timestamp.Time, d int64)) int {
	ps := ix.pairs(hk, k)
	for _, p := range ps {
		yield(p.V, timestamp.Time{}, p.D)
	}
	return len(ps)
}

// reset forgets every key, keeping the columns' capacity.
func (ix *totalIndex[K, V]) reset() {
	ix.keyTable.reset()
	ix.runs, ix.slab = ix.runs[:0], ix.slab[:0]
}
