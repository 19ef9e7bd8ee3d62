package dataflow

import (
	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// joinNode implements the bilinear differential join. A delta arriving at
// time a on one side pairs with every stored delta at time b on the other
// side, emitting at Join(a, b) with multiplied diffs; each (δA, δB) pair is
// counted exactly once because whichever delta is processed later does the
// pairing against the stored history of the other side.
//
// Each side's history is an arrangement (internal/arrange): sorted columnar
// batches plus a bounded stage, per worker; the two sides are peers, so a
// delta's key is hashed once for the lookup on one side and the append on
// the other. The first run after the scope's frontier moves folds each side
// into one canonical batch clamped to the frontier — one pass over the
// trace into a recycled column set when a free one has room for it, else
// into a new one (see arrange.Trace.Advance) — and batches
// sealed later in the version clamp as they are written. Batch entries may
// therefore be clamped while stage entries are raw, which is
// indistinguishable to the join since it only Joins against times at or
// above the frontier.
type joinNode[K comparable, A comparable, B comparable, O comparable] struct {
	s   *Scope
	out *Collection[O]
	f   func(K, A, B) O

	pl *pendings[KV[K, A]]
	pr *pendings[KV[K, B]]

	left  []*arrange.Trace[K, A] // per-worker arrangements
	right []*arrange.Trace[K, B]
	ob    []timeBatches[O] // per-worker output scratch, reused across runs
}

// JoinMap joins two keyed streams, emitting f(k, a, b) for every matching
// pair. It is the engine's equivalent of DD's join_map and the JoinMsg
// operator in the paper's Bellman-Ford dataflow (Figure 2).
func JoinMap[K comparable, A comparable, B comparable, O comparable](
	l *Collection[KV[K, A]], r *Collection[KV[K, B]], f func(K, A, B) O,
) *Collection[O] {
	s := l.s
	n := &joinNode[K, A, B, O]{
		s:     s,
		out:   newCollection[O](s),
		f:     f,
		pl:    newPendings[KV[K, A]](s),
		pr:    newPendings[KV[K, B]](s),
		left:  make([]*arrange.Trace[K, A], s.workers),
		right: make([]*arrange.Trace[K, B], s.workers),
		ob:    make([]timeBatches[O], s.workers),
	}
	for w := 0; w < s.workers; w++ {
		n.left[w] = arrange.NewTrace[K, A]()
		n.right[w] = arrange.NewPeer[K, B](n.left[w])
	}
	l.subscribe(keyedSubscriber(s, n.pl))
	r.subscribe(keyedSubscriber(s, n.pr))
	s.recycles(func() { clear(n.ob) })
	s.addNode(n)
	return n.out
}

// Semijoin keeps the (k, v) pairs of l whose key appears in the set r,
// multiplied by r's multiplicities (r should carry multiplicity one per key,
// e.g. a Distinct output).
func Semijoin[K comparable, V comparable](l *Collection[KV[K, V]], r *Collection[KV[K, struct{}]]) *Collection[KV[K, V]] {
	return JoinMap(l, r, func(k K, v V, _ struct{}) KV[K, V] { return KV[K, V]{k, v} })
}

// Antijoin keeps the (k, v) pairs of l whose key does NOT appear in the set
// r: l ⊖ (l ⋉ r). r must carry multiplicity one per present key (e.g. a
// DistinctKeys output), so the subtraction cancels exactly.
func Antijoin[K comparable, V comparable](l *Collection[KV[K, V]], r *Collection[KV[K, struct{}]]) *Collection[KV[K, V]] {
	return Concat(l, Negate(Semijoin(l, r)))
}

func (n *joinNode[K, A, B, O]) name() string { return "join" }

func (n *joinNode[K, A, B, O]) run(w int, t timestamp.Time) {
	lb, rb := n.pl.take(w, t), n.pr.take(w, t)
	if len(lb.recs) == 0 && len(rb.recs) == 0 {
		return
	}
	left, right := n.left[w], n.right[w]
	if outer, compacting := n.s.compactionOuter(); compacting {
		left.Advance(outer)
		right.Advance(outer)
	}
	// Output is grouped by its time t.Join(et), nearly always t itself, and
	// lent to the subscribers batch by batch.
	ob := &n.ob[w]
	cur := ob.at(t)
	pairs := 0
	// New left deltas pair against the stored right history (which does not
	// yet include this round's right batch).
	for i, kv := range lb.recs {
		k, av, dd := kv.K, kv.V, lb.diffs[i]
		hk := right.Hash(k)
		pairs += right.KeyHashed(hk, k, func(v B, et timestamp.Time, ed int64) {
			if jt := t.Join(et); jt != cur.t {
				cur = ob.at(jt)
			}
			cur.add(n.f(k, av, v), dd*ed)
		})
		left.AppendHashed(hk, k, av, t, dd)
	}
	// New right deltas pair against the full left history, including this
	// round's left batch, so each (δL, δR) pair is counted exactly once.
	for i, kv := range rb.recs {
		k, bv, dd := kv.K, kv.V, rb.diffs[i]
		hk := left.Hash(k)
		pairs += left.KeyHashed(hk, k, func(v A, et timestamp.Time, ed int64) {
			if jt := t.Join(et); jt != cur.t {
				cur = ob.at(jt)
			}
			cur.add(n.f(k, v, bv), ed*dd)
		})
		right.AppendHashed(hk, k, bv, t, dd)
	}
	n.s.addWork(w, len(lb.recs)+len(rb.recs)+pairs)
	ob.flush(w, n.out)
}

// reset drops both sides' arrangements by releasing their batch stacks by
// reference — O(1) per worker regardless of accumulated trace size. Each
// trace keeps its recycled column sets, and the output scratch stays too.
func (n *joinNode[K, A, B, O]) reset() {
	n.pl.reset()
	n.pr.reset()
	for w := range n.left {
		n.left[w].Reset()
		n.right[w].Reset()
	}
}

func (n *joinNode[K, A, B, O]) hasPending(w int, t timestamp.Time) bool {
	return n.pl.has(w, t) || n.pr.has(w, t)
}

func (n *joinNode[K, A, B, O]) minPending(w int) (timestamp.Time, bool) {
	lt, lok := n.pl.min(w)
	rt, rok := n.pr.min(w)
	if !lok || (rok && rt.LexLess(lt)) {
		return rt, rok
	}
	return lt, true
}
