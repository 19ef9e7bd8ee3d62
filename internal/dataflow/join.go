package dataflow

import (
	"hash/maphash"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// joinNode implements the bilinear differential join. A delta arriving at
// time a on one side pairs with every stored delta at time b on the other
// side, emitting at Join(a, b) with multiplied diffs; each (δA, δB) pair is
// counted exactly once because whichever delta is processed later does the
// pairing against the stored history of the other side.
//
// Each worker keeps both sides at the slots of one key space, so a delta's
// key is found once for the lookup on one side and the add on the other.
// The left side is an arrange.History, and so is JoinMap's right side; a
// run after the scope's frontier moves hands the frontier to the key space,
// and a slot's histories are clamped to it at the slot's next access. A key
// not touched since keeps raw times, which is indistinguishable to the join
// since it only Joins against times at or above the frontier.
//
// JoinMapTotal's right side has no time to clamp: it is a totalIndex, the
// right input's accumulated (value, count) pairs per key, updated in
// O(delta).
type joinNode[K comparable, A comparable, B comparable, O comparable] struct {
	s     *Scope
	out   *Collection[O]
	f     func(K, A, B) O
	total bool // JoinMapTotal

	pl *pendings[KV[K, A]]
	pr *pendings[KV[K, B]]

	st []joinShard[K, A, B]
	ob []timeBatches[O] // per-worker output scratch, reused across runs
}

// joinShard is one worker's share of a join: both sides, per slot of one
// key space. right is JoinMap's right side, total JoinMapTotal's.
type joinShard[K comparable, A comparable, B comparable] struct {
	keys  arrange.Keys[K]
	left  arrange.History[A]
	right arrange.History[B]
	total totalIndex[B]
}

// slot returns k's slot, where hk is k's hash, clamping both histories
// there on its first access after the frontier moved.
func (sh *joinShard[K, A, B]) slot(hk uint64, k K) uint32 {
	s := sh.keys.Slot(hk, k)
	if outer, stale := sh.keys.Stale(s); stale {
		sh.left.Clamp(s, outer)
		sh.right.Clamp(s, outer)
	}
	return s
}

// JoinMap joins two keyed streams, emitting f(k, a, b) for every matching
// pair. It is the engine's equivalent of DD's join_map. The JoinMsg operator
// in the paper's Bellman-Ford dataflow (Figure 2) is a join like this one,
// but where its messages only feed a min or a max, JoinMin and JoinMax
// compute both without storing them.
func JoinMap[K comparable, A comparable, B comparable, O comparable](
	l *Collection[KV[K, A]], r *Collection[KV[K, B]], f func(K, A, B) O,
) *Collection[O] {
	return newJoin(l, r, f, false)
}

// JoinMapTotal is JoinMap for a right input whose times are totally ordered,
// (version, 0): a collection upstream of every loop, such as a graph's
// edges, joined with a loop variable on the left. The right side is kept as
// its accumulated multiset, with no time column and no merge (see
// totalIndex); the left side may carry any time. A right delta at an
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
		total: total,
		pl:    newPendings[KV[K, A]](s),
		pr:    newPendings[KV[K, B]](s),
		st:    make([]joinShard[K, A, B], s.workers),
		ob:    make([]timeBatches[O], s.workers),
	}
	l.subscribe(keyedSubscriber(s, n.pl))
	r.subscribe(keyedSubscriber(s, n.pr))
	s.recycles(func() { clear(n.ob) })
	s.addNode(n)
	return n.out
}

func (n *joinNode[K, A, B, O]) name() string { return "join" }

func (n *joinNode[K, A, B, O]) run(w int, t timestamp.Time) {
	lb, rb := n.pl.take(w, t), n.pr.take(w, t)
	if len(lb.recs) == 0 && len(rb.recs) == 0 {
		return
	}
	sh := &n.st[w]
	if outer, compacting := n.s.compactionOuter(); compacting {
		sh.keys.Advance(outer)
	}
	// Output is grouped by its time t.Join(et), nearly always t itself, and
	// lent to the subscribers batch by batch.
	ob := &n.ob[w]
	cur := ob.at(t)
	pairs := 0
	// New left deltas pair against the stored right side (which does not
	// yet include this round's right batch).
	for i, kv := range lb.recs {
		k, a, d := kv.K, kv.V, lb.diffs[i]
		s := sh.slot(maphash.Comparable(n.s.seed, k), k)
		if n.total {
			// A total index's pairs count at every time, so they pair at t,
			// where cur stays through this loop.
			ps := sh.total.At(s)
			for _, p := range ps {
				cur.add(n.f(k, a, p.V), d*p.D)
			}
			pairs += len(ps)
		} else {
			es := sh.right.At(s)
			for _, e := range es {
				if jt := t.Join(e.T); jt != cur.t {
					cur = ob.at(jt)
				}
				cur.add(n.f(k, a, e.V), d*e.D)
			}
			pairs += len(es)
		}
		sh.left.Add(s, a, t, d)
	}
	// New right deltas pair against the full left history, including this
	// round's left batch, so each (δL, δR) pair is counted exactly once.
	if len(rb.recs) > 0 && n.total {
		mustBeTotal("JoinMapTotal's right input", t)
		sh.total.begin()
	}
	for i, kv := range rb.recs {
		k, b, d := kv.K, kv.V, rb.diffs[i]
		s := sh.slot(maphash.Comparable(n.s.seed, k), k)
		es := sh.left.At(s)
		for _, e := range es {
			if jt := t.Join(e.T); jt != cur.t {
				cur = ob.at(jt)
			}
			cur.add(n.f(k, e.V, b), e.D*d)
		}
		pairs += len(es)
		if n.total {
			sh.total.add(s, b, d)
		} else {
			sh.right.Add(s, b, t, d)
		}
	}
	n.s.addWork(w, len(lb.recs)+len(rb.recs)+pairs)
	ob.flush(w, n.out)
}

// reset drops both sides' state by truncating each worker's key space and
// stores in place — O(1) per worker in accumulated history apart from
// clearing the key table. Every column stays for the next run, and so does
// the output scratch.
func (n *joinNode[K, A, B, O]) reset() {
	n.pl.reset()
	n.pr.reset()
	for w := range n.st {
		sh := &n.st[w]
		sh.keys.Reset()
		sh.left.Reset()
		sh.right.Reset()
		sh.total.reset()
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
