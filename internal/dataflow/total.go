package dataflow

import (
	"fmt"
	"hash/maphash"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// Totally ordered operators. Upstream of every loop a collection only
// carries times (version, 0), which are totally ordered, so a key's whole
// history is one accumulated count: these operators keep that count per key
// in a column beside their key table instead of a time-indexed history, and
// update it in O(delta) per version with nothing to merge or clamp. They
// are Differential Dataflow's distinct_total and count_total, restricted as
// there to totally ordered times. Fed a time with Inner ≠ 0 — any stream
// inside an Iterate body — they panic. JoinMapTotal's right input and
// JoinMin's and JoinMax's edges and roots are kept the same way, as (value,
// count) pairs per key (totalIndex), under the same rule.

// mustBeTotal panics unless t is a time op accepts: (version, 0).
func mustBeTotal(op string, t timestamp.Time) {
	if t.Inner != 0 {
		panic(fmt.Sprintf("dataflow: %s fed at time %v: it keeps no time column and takes only times (version, 0), so it cannot run inside Iterate", op, t))
	}
}

// totalNode keeps one count per key, in a column per worker beside its key
// table, and reports each key a run changes through f: was is its count
// before the run's consolidated batch, now after. Each key appears once in a
// batch, so f's output is consolidated.
type totalNode[K comparable, O comparable] struct {
	s   *Scope
	op  string
	out *Collection[O]
	f   func(k K, was, now int64, ob *batch[O])
	p   *pendings[KV[K, struct{}]]
	st  []totalShard[K]
	ob  []batch[O] // per-worker output scratch
}

// totalShard is one worker's counts: per slot of its key table, the key's
// accumulated count.
type totalShard[K comparable] struct {
	keys  arrange.KeyTable[K]
	count []int64 // per slot
}

func newTotal[K comparable, O comparable](in *Collection[KV[K, struct{}]], op string, f func(k K, was, now int64, ob *batch[O])) *Collection[O] {
	s := in.s
	n := &totalNode[K, O]{
		s:   s,
		op:  op,
		out: newCollection[O](s),
		f:   f,
		p:   newPendings[KV[K, struct{}]](s),
		st:  make([]totalShard[K], s.workers),
		ob:  make([]batch[O], s.workers),
	}
	s.recycles(func() { clear(n.ob) })
	in.subscribe(keyedSubscriber(s, n.p))
	s.addNode(n)
	return n.out
}

// DistinctTotal is Distinct for a totally ordered collection: it emits a
// record when its accumulated count crosses from zero or below to above
// zero, and retracts it on the way back.
func DistinctTotal[R comparable](in *Collection[R]) *Collection[R] {
	keyed := Map(in, func(r R) KV[R, struct{}] { return KV[R, struct{}]{r, struct{}{}} })
	return newTotal(keyed, "DistinctTotal", func(r R, was, now int64, ob *batch[R]) {
		if present := now > 0; present != (was > 0) {
			d := Diff(-1)
			if present {
				d = 1
			}
			ob.add(r, d)
		}
	})
}

// CountTotal is ReduceCount for a totally ordered keyed collection: per key
// whose count a version changes, it retracts the old count and asserts the
// new one.
func CountTotal[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, int64]] {
	keys := Map(in, func(kv KV[K, V]) KV[K, struct{}] { return KV[K, struct{}]{K: kv.K} })
	return newTotal(keys, "CountTotal", func(k K, was, now int64, ob *batch[KV[K, int64]]) {
		if was != 0 {
			ob.add(KV[K, int64]{k, was}, -1)
		}
		if now != 0 {
			ob.add(KV[K, int64]{k, now}, 1)
		}
	})
}

func (n *totalNode[K, O]) name() string { return n.op }

// run folds the batch at t into worker w's counts. Work is the records in
// plus the records out, both consolidated.
func (n *totalNode[K, O]) run(w int, t timestamp.Time) {
	mustBeTotal(n.op, t)
	b := n.p.take(w, t)
	sh, ob := &n.st[w], n.ob[w].reset(t, 0)
	for i, kv := range b.recs {
		s, d := sh.keys.Slot(maphash.Comparable(n.s.seed, kv.K), kv.K), b.diffs[i]
		sh.count = arrange.Grow(sh.count, s)
		was := sh.count[s]
		sh.count[s] += d
		n.f(kv.K, was, was+d, ob)
	}
	n.s.addWork(w, len(b.recs)+len(ob.recs))
	n.out.emit(w, ob)
}

// reset truncates every worker's key table and counts in place.
func (n *totalNode[K, O]) reset() {
	n.p.reset()
	for w := range n.st {
		n.st[w].keys.Reset()
		n.st[w].count = n.st[w].count[:0]
	}
}

func (n *totalNode[K, O]) hasPending(w int, t timestamp.Time) bool { return n.p.has(w, t) }

func (n *totalNode[K, O]) minPending(w int) (timestamp.Time, bool) { return n.p.min(w) }
