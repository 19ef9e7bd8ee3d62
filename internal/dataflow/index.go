package dataflow

import (
	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// totalIndex is one worker's accumulated state of a collection whose times
// are totally ordered, (version, 0): per key, its (value, count) pairs whose
// counts do not cancel, and no time column. Such a collection is its
// accumulated multiset, so an update is O(the key's pairs) and nothing is
// ever merged. A key's pairs are its span of one arrange.SpanSlab; a reset
// truncates every column in place, so a reset index reruns without
// allocating.
//
// Updates come in batches, each opened by begin, in which every (key, value)
// appears at most once, as after consolidation. A batch whose keys are
// slotted first may reserve their room in the slab before it adds.
type totalIndex[K comparable, V comparable] struct {
	arrange.KeyTable[K]
	runs  []pairRun // per slot
	slab  arrange.SpanSlab[VD[V]]
	epoch uint32 // the open batch
}

// pairRun is one key's batch state: the first old of its pairs were there
// before the batch it was last updated in (epoch); the rest came with it.
type pairRun struct{ old, epoch uint32 }

// begin opens a batch.
func (ix *totalIndex[K, V]) begin() { ix.epoch++ }

// slot returns k's slot, where hk is k's hash, adding an empty one the
// first time k is seen.
func (ix *totalIndex[K, V]) slot(hk uint64, k K) uint32 {
	s := ix.KeyTable.Slot(hk, k)
	if int(s) == len(ix.runs) {
		ix.runs = append(ix.runs, pairRun{})
		ix.slab.Add()
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
	ps := ix.slab.At(s)
	if r.epoch != ix.epoch {
		r.epoch, r.old = ix.epoch, uint32(len(ps))
	}
	for i := range ps[:r.old] {
		if ps[i].V != v {
			continue
		}
		was := ps[i].D
		if ps[i].D += d; ps[i].D == 0 {
			// The last old pair fills the hole, and the batch's last pair
			// its place, so the batch's pairs stay last.
			r.old--
			ps[i], ps[r.old] = ps[r.old], ps[len(ps)-1]
			ix.slab.Cut(s, len(ps)-1)
		}
		return was
	}
	ix.slab.Push(s, VD[V]{v, d})
	return 0
}

// pairs returns k's pairs, valid until the next add. hk is k's hash.
func (ix *totalIndex[K, V]) pairs(hk uint64, k K) []VD[V] {
	s, ok := ix.Find(hk, k)
	if !ok {
		return nil
	}
	return ix.slab.At(s)
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
	ix.KeyTable.Reset()
	ix.runs = ix.runs[:0]
	ix.slab.Reset()
}
