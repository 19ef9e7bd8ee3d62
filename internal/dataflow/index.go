package dataflow

import (
	"fmt"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// Totally ordered state. Upstream of every loop a collection only carries
// times (version, 0), so a key's history is its accumulated multiset:
// JoinMapTotal's right input, JoinMin's and JoinMax's edges and roots and
// JoinSum's edges keep (value, count) pairs per key (totalIndex), updated
// in O(delta) with nothing to merge or clamp. They, and JoinSum's base,
// panic when fed a time with Inner ≠ 0, as inside an Iterate body.

// mustBeTotal panics unless t is a time op accepts: (version, 0).
func mustBeTotal(op string, t timestamp.Time) {
	if t.Inner != 0 {
		panic(fmt.Sprintf("dataflow: %s fed at time %v: it keeps no time column and takes only times (version, 0), so it cannot run inside Iterate", op, t))
	}
}

// totalIndex is the accumulated state of a collection whose times are
// totally ordered, (version, 0), per slot of its owner's key space: the
// key's (value, count) pairs whose counts do not cancel, and no time
// column. Such a collection is its accumulated multiset, so an update is
// O(the key's pairs) and nothing is ever merged or clamped. A key's pairs
// are its span of the slab; a reset truncates every column in place, so a
// reset index reruns without allocating.
//
// Updates come in batches, each opened by begin, in which every (slot,
// value) appears at most once, as after consolidation. A batch whose slots
// are known first may reserve their room (Ask, Reserve) before it adds.
type totalIndex[V comparable] struct {
	arrange.SpanSlab[VD[V]]
	runs  []pairRun // per slot
	epoch uint32    // the open batch
}

// pairRun is one key's batch state: the first old of its pairs were there
// before the batch it was last updated in (epoch); the rest came with it.
type pairRun struct{ old, epoch uint32 }

// begin opens a batch.
func (ix *totalIndex[V]) begin() { ix.epoch++ }

// add folds d into the count of v at slot s and returns the count before. A
// value is looked for only among the pairs that were there before the
// batch: a batch adds each value once, so a whole view's values arriving at
// a key in one batch cost linear, not quadratic, time.
func (ix *totalIndex[V]) add(s uint32, v V, d int64) int64 {
	ix.runs = arrange.Grow(ix.runs, s)
	r := &ix.runs[s]
	ps := ix.At(s)
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
			ix.Cut(s, len(ps)-1)
		}
		return was
	}
	ix.Push(s, VD[V]{v, d})
	return 0
}

// reset forgets every key's pairs, keeping the columns' capacity.
func (ix *totalIndex[V]) reset() {
	ix.Reset()
	ix.runs = ix.runs[:0]
}
