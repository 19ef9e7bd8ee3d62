// Package dataflow implements a multi-worker differential computation engine,
// the Go equivalent of the Timely Dataflow + Differential Dataflow substrate
// that Graphsurge is built on.
//
// Every stream is a multiset of (record, time, diff) updates with times drawn
// from the product lattice (version, iteration) (package timestamp). The
// engine maintains, for every operator and every time t, the invariant that
// the accumulated output Σ_{s≤t} δout_s equals the operator applied to the
// accumulated input Σ_{s≤t} δin_s. Linear operators (Map, Filter, FlatMap,
// Concat, Negate) transform deltas directly; Join is bilinear and pairs
// deltas across sides at the lattice join of their times; Reduce keeps per-key
// input/output histories and emits corrections at the join-closure of the
// key's times, one per iteration stamped by version; Iterate builds the
// differential feedback loop X = I ⊕ delay(N) ⊖ delay(I) and runs to
// fixpoint, detected automatically by quiescence.
//
// Scheduling is a deliberate simplification of Timely's distributed progress
// tracking, sound for Graphsurge's batch-synchronous usage (one view version
// at a time): pending work is processed in lexicographic time order, a linear
// extension of the partial order, and every operator only emits at times ≥
// the time being processed, so all inputs at s ≤ t are present before any
// work at t is finalized.
//
// A Scope runs W workers. Keyed operators shard their state by key hash and
// route deltas to the owning worker; execution proceeds per timestamp in
// passes over the nodes, each node run on every worker before a barrier,
// until global quiescence, the moral equivalent of Timely workers exchanging
// data over channels.
package dataflow

import (
	"math/bits"

	"graphsurge/internal/timestamp"
)

// Diff is the signed multiplicity of a record update. Negative diffs are
// deletions.
type Diff = int64

// KV is a keyed record, the input shape of Join and Reduce.
type KV[K comparable, V comparable] struct {
	K K
	V V
}

// Update is a record-multiplicity pair without a time, used when feeding
// inputs (the time is supplied by the version being fed).
type Update[R comparable] struct {
	Rec R
	D   Diff
}

// VD is a value-multiplicity pair, the consolidated input handed to Reduce
// functions.
type VD[V comparable] struct {
	V V
	D Diff
}

// batch is the unit of exchange between operators: parallel record and diff
// columns that share one logical time. A pending bucket is one, so deltas
// stay columnar from the operator that emits them to the store that keeps
// them. A batch passed to a subscriber is borrowed for the duration of the
// emit call: the producer reuses its columns afterwards, so a subscriber
// copies what it keeps and never writes to it. An input or a fused operator
// hands a large batch on in chunks (chunkRows) and sets more, its estimate of
// the rows still to come at t, so a pending bucket grows once for all of
// them.
type batch[R comparable] struct {
	recs  []R
	diffs []Diff
	t     timestamp.Time
	more  int
}

// chunkRows is the most rows an input or a fused operator hands on in one
// batch per worker. It bounds their scratch, which is why the scope keeps it
// instead of releasing it (see Scope.release); the pending buffers
// downstream gather the chunks of one time into one bucket.
const chunkRows = 1024

// reset empties b for reuse at time t, with room for the n rows the caller
// expects. Its columns keep their capacity: Scope.release says for how long.
func (b *batch[R]) reset(t timestamp.Time, n int) *batch[R] {
	if cap(b.recs) < n {
		b.recs, b.diffs = make([]R, 0, n), make([]Diff, 0, n)
	}
	b.recs, b.diffs, b.t, b.more = b.recs[:0], b.diffs[:0], t, 0
	return b
}

func (b *batch[R]) add(r R, d Diff) {
	b.recs = append(b.recs, r)
	b.diffs = append(b.diffs, d)
}

// consolidate sums the diffs of equal records in place and drops zeros,
// keeping first-arrival order. Small batches fold by linear scan; larger ones
// through idx, an open-addressing index of first occurrences recycled across
// calls: equality is all consolidation needs, so nothing is sorted and, once
// idx has grown, nothing allocated.
func (b *batch[R]) consolidate(hash func(R) uint64, idx *[]uint32) {
	n := len(b.recs)
	if n > 32 {
		width := bits.Len(uint(2 * n))
		size := 1 << width
		if cap(*idx) < size {
			*idx = make([]uint32, size)
		}
		tab := (*idx)[:size]
		clear(tab)
		for i, r := range b.recs {
			// The home slot is the hash's top bits: the partitioner took its
			// residue, so a shard's records agree on the low ones.
			for p := hash(r) >> (64 - width); ; p++ {
				slot := &tab[p&uint64(size-1)]
				if *slot == 0 {
					*slot = uint32(i + 1)
					break
				}
				if j := *slot - 1; b.recs[j] == r {
					b.diffs[j] += b.diffs[i]
					b.diffs[i] = 0
					break
				}
			}
		}
	} else {
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if b.recs[j] == b.recs[i] {
					b.diffs[j] += b.diffs[i]
					b.diffs[i] = 0
					break
				}
			}
		}
	}
	m := 0
	for i, d := range b.diffs {
		if d != 0 {
			b.recs[m], b.diffs[m] = b.recs[i], d
			m++
		}
	}
	b.recs, b.diffs = b.recs[:m], b.diffs[:m]
}

// timeBatches is one worker's recycled output scratch for an operator whose
// output times vary within a run (a join emits at t.Join(et)): one batch per
// distinct time, in order of first use.
type timeBatches[R comparable] struct {
	bs []batch[R]
	n  int // batches in use by the current run
}

// at returns the batch collecting output at time t.
func (o *timeBatches[R]) at(t timestamp.Time) *batch[R] {
	for i := o.n - 1; i >= 0; i-- {
		if o.bs[i].t == t {
			return &o.bs[i]
		}
	}
	if o.n == len(o.bs) {
		o.bs = append(o.bs, batch[R]{})
	}
	o.n++
	return o.bs[o.n-1].reset(t, 0)
}

// flush emits the run's batches into c and marks them free.
func (o *timeBatches[R]) flush(w int, c *Collection[R]) {
	for i := range o.bs[:o.n] {
		c.emit(w, &o.bs[i])
	}
	o.n = 0
}
