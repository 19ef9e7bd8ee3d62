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
// The left side's history is an arrangement (internal/arrange): sorted
// columnar batches plus a bounded stage, per worker. JoinMap's right side is
// a peer arrangement, so a delta's key is hashed once for the lookup on one
// side and the append on the other. The first run after the scope's frontier
// moves folds each arrangement into one canonical batch clamped to the
// frontier — one pass over the trace into a recycled column set when a free
// one has room for it, else into a new one (see arrange.Trace.Advance) — and
// batches sealed later in the version clamp as they are written. Batch
// entries may therefore be clamped while stage entries are raw, which is
// indistinguishable to the join since it only Joins against times at or
// above the frontier.
//
// JoinMapTotal's right side has no trace and nothing to fold: it is a
// totalIndex, the right input's accumulated (value, count) pairs per key,
// updated in O(delta).
type joinNode[K comparable, A comparable, B comparable, O comparable] struct {
	s   *Scope
	out *Collection[O]
	f   func(K, A, B) O

	pl *pendings[KV[K, A]]
	pr *pendings[KV[K, B]]

	left  []*arrange.Trace[K, A] // per-worker arrangements
	right []joinRight[K, B]
	ob    []timeBatches[O] // per-worker output scratch, reused across runs
}

// joinRight is one worker's store of a join's right input: an arrangement
// (tr), or for JoinMapTotal a total index (ix). The join calls each through
// its concrete type, so the closures it hands them stay on the stack.
type joinRight[K comparable, B comparable] struct {
	tr *arrange.Trace[K, B]
	ix *totalIndex[K, B]
}

func (r *joinRight[K, B]) key(hk uint64, k K, yield func(v B, t timestamp.Time, d int64)) int {
	if r.ix != nil {
		return r.ix.key(hk, k, yield)
	}
	return r.tr.KeyHashed(hk, k, yield)
}

// open starts a run's right batch at t: a total index checks the time and
// opens a batch.
func (r *joinRight[K, B]) open(t timestamp.Time) {
	if r.ix != nil {
		mustBeTotal("JoinMapTotal's right input", t)
		r.ix.begin()
	}
}

func (r *joinRight[K, B]) add(hk uint64, k K, v B, t timestamp.Time, d int64) {
	if r.ix != nil {
		r.ix.add(hk, k, v, d)
	} else {
		r.tr.AppendHashed(hk, k, v, t, d)
	}
}

// advance folds an arrangement to the frontier; a total index has no time
// to clamp.
func (r *joinRight[K, B]) advance(outer uint32) {
	if r.tr != nil {
		r.tr.Advance(outer)
	}
}

func (r *joinRight[K, B]) reset() {
	if r.ix != nil {
		r.ix.reset()
	} else {
		r.tr.Reset()
	}
}

// JoinMap joins two keyed streams, emitting f(k, a, b) for every matching
// pair. It is the engine's equivalent of DD's join_map and the JoinMsg
// operator in the paper's Bellman-Ford dataflow (Figure 2).
func JoinMap[K comparable, A comparable, B comparable, O comparable](
	l *Collection[KV[K, A]], r *Collection[KV[K, B]], f func(K, A, B) O,
) *Collection[O] {
	return newJoin(l, r, f, false)
}

// JoinMapTotal is JoinMap for a right input whose times are totally ordered,
// (version, 0): a collection upstream of every loop, such as a graph's
// edges, joined with a loop variable on the left. The right side is kept as
// its accumulated multiset, with no time column and no merge (see
// DistinctTotal); the left side may carry any time. A right delta at an
// inner time other than 0 panics.
func JoinMapTotal[K comparable, A comparable, B comparable, O comparable](
	l *Collection[KV[K, A]], r *Collection[KV[K, B]], f func(K, A, B) O,
) *Collection[O] {
	return newJoin(l, r, f, true)
}

func newJoin[K comparable, A comparable, B comparable, O comparable](
	l *Collection[KV[K, A]], r *Collection[KV[K, B]], f func(K, A, B) O,
	total bool,
) *Collection[O] {
	s := l.s
	n := &joinNode[K, A, B, O]{
		s:     s,
		out:   newCollection[O](s),
		f:     f,
		pl:    newPendings[KV[K, A]](s),
		pr:    newPendings[KV[K, B]](s),
		left:  make([]*arrange.Trace[K, A], s.workers),
		right: make([]joinRight[K, B], s.workers),
		ob:    make([]timeBatches[O], s.workers),
	}
	for w := 0; w < s.workers; w++ {
		n.left[w] = arrange.NewTrace[K, A]()
		if total {
			n.right[w].ix = new(totalIndex[K, B])
		} else {
			n.right[w].tr = arrange.NewPeer[K, B](n.left[w])
		}
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
	left, right := n.left[w], &n.right[w]
	if outer, compacting := n.s.compactionOuter(); compacting {
		left.Advance(outer)
		right.advance(outer)
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
		hk := left.Hash(k)
		pairs += right.key(hk, k, func(v B, et timestamp.Time, ed int64) {
			if jt := t.Join(et); jt != cur.t {
				cur = ob.at(jt)
			}
			cur.add(n.f(k, av, v), dd*ed)
		})
		left.AppendHashed(hk, k, av, t, dd)
	}
	// New right deltas pair against the full left history, including this
	// round's left batch, so each (δL, δR) pair is counted exactly once.
	if len(rb.recs) > 0 {
		right.open(t)
	}
	for i, kv := range rb.recs {
		k, bv, dd := kv.K, kv.V, rb.diffs[i]
		hk := left.Hash(k)
		pairs += left.KeyHashed(hk, k, func(v A, et timestamp.Time, ed int64) {
			if jt := t.Join(et); jt != cur.t {
				cur = ob.at(jt)
			}
			cur.add(n.f(k, v, bv), ed*dd)
		})
		right.add(hk, k, bv, t, dd)
	}
	n.s.addWork(w, len(lb.recs)+len(rb.recs)+pairs)
	ob.flush(w, n.out)
}

// reset drops both sides' state by releasing the arrangements' batch stacks
// by reference and truncating a total index in place — O(1) per worker
// regardless of accumulated trace size. Each trace keeps its recycled column
// sets, and the output scratch stays too.
func (n *joinNode[K, A, B, O]) reset() {
	n.pl.reset()
	n.pr.reset()
	for w := range n.left {
		n.left[w].Reset()
		n.right[w].reset()
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
