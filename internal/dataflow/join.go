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
// trace into its spare column set, allocation-free once warm — and batches
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
	ob    [][]Delta[O] // per-worker output scratch, reused across runs
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
		pl:    newPendings[KV[K, A]](s.workers),
		pr:    newPendings[KV[K, B]](s.workers),
		left:  make([]*arrange.Trace[K, A], s.workers),
		right: make([]*arrange.Trace[K, B], s.workers),
		ob:    make([][]Delta[O], s.workers),
	}
	for w := 0; w < s.workers; w++ {
		n.left[w] = arrange.NewTrace[K, A]()
		n.right[w] = arrange.NewPeer[K, B](n.left[w])
	}
	l.subscribe(keyedSubscriber(s, n.pl))
	r.subscribe(keyedSubscriber(s, n.pr))
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
	lb := n.pl.take(w, t)
	rb := n.pr.take(w, t)
	if len(lb) == 0 && len(rb) == 0 {
		return
	}
	left, right := n.left[w], n.right[w]
	if outer, compacting := n.s.compactionOuter(); compacting {
		left.Advance(outer)
		right.Advance(outer)
	}
	ob := n.ob[w][:0] // subscribers copy what they keep
	pairs := 0
	// New left deltas pair against the stored right history (which does not
	// yet include this round's right batch).
	for _, d := range lb {
		k, dd := d.Rec.K, d.D
		av, hk := d.Rec.V, right.Hash(k)
		pairs += right.KeyHashed(hk, k, func(v B, et timestamp.Time, ed int64) {
			ob = append(ob, Delta[O]{n.f(k, av, v), t.Join(et), dd * ed})
		})
		left.AppendHashed(hk, k, av, t, dd)
	}
	// New right deltas pair against the full left history, including this
	// round's left batch, so each (δL, δR) pair is counted exactly once.
	for _, d := range rb {
		k, dd := d.Rec.K, d.D
		bv, hk := d.Rec.V, left.Hash(k)
		pairs += left.KeyHashed(hk, k, func(v A, et timestamp.Time, ed int64) {
			ob = append(ob, Delta[O]{n.f(k, v, bv), t.Join(et), ed * dd})
		})
		right.AppendHashed(hk, k, bv, t, dd)
	}
	n.ob[w] = ob
	n.s.addWork(w, len(lb)+len(rb)+pairs)
	n.out.emit(w, Consolidate(ob))
}

// reset drops both sides' arrangements by releasing their batch stacks by
// reference — O(1) per worker regardless of accumulated trace size, without
// even the map re-allocation the old per-key traces paid. Each trace keeps
// at most its spare column set; the output scratch goes with the history.
func (n *joinNode[K, A, B, O]) reset() {
	n.pl.reset()
	n.pr.reset()
	for w := range n.left {
		n.left[w].Reset()
		n.right[w].Reset()
		n.ob[w] = nil
	}
}

func (n *joinNode[K, A, B, O]) hasPending(w int, t timestamp.Time) bool {
	return n.pl.has(w, t) || n.pr.has(w, t)
}

func (n *joinNode[K, A, B, O]) minPending(w int) (timestamp.Time, bool) {
	lt, lok := n.pl.min(w)
	rt, rok := n.pr.min(w)
	switch {
	case lok && rok:
		if lt.LexLess(rt) {
			return lt, true
		}
		return rt, true
	case lok:
		return lt, true
	case rok:
		return rt, true
	}
	return timestamp.Time{}, false
}
