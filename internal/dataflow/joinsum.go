package dataflow

import (
	"hash/maphash"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// JoinSum computes, per key, the sum of its base values and of the messages
// the loop variable x sends along edges, each edge keyed by its source and
// going to key dst(e):
//
//	ReduceSum(Concat(base, msgs)), with msgs the join of x and edges by
//	source: (dst(e), v) for each x record (u, v) and edge (u, e), with
//	multiplicity their product,
//
// fused into one node that stores no message: each message difference is
// folded where it is made into its key's (time, n, Σ) rows, the linear
// reduce's, as a combiner (GraphX sums a vertex's messages before the
// exchange). A sum is invertible, so unlike JoinMin's, no key ever walks its
// in-edges. A key is output, with its sum, while n, the count of its base
// records and messages, is not 0. x may carry any time; the edges and base
// are upstream of every loop, and a delta on either at an inner time other
// than 0 panics (see mustBeTotal).
func JoinSum[K comparable, E comparable](
	x *Collection[KV[K, int64]], edges *Collection[KV[K, E]], base *Collection[KV[K, int64]], dst func(E) K,
) *Collection[KV[K, int64]] {
	s := x.s
	n := &sumNode[K, E]{
		s: s, out: newCollection[KV[K, int64]](s), dst: dst,
		px: newPendings[KV[K, int64]](s),
		pe: newPendings[KV[K, E]](s),
		pb: newPendings[KV[K, int64]](s),
		st: make([]*sumShard[K, E], s.workers),
	}
	for w := range n.st {
		sh := &sumShard[K, E]{}
		n.st[w] = sh
		s.recycles(func() { sh.ob = batch[KV[K, int64]]{}; sh.sched.release() })
	}
	x.subscribe(broadcastSubscriber(s, n.px))
	edges.subscribe(routedSubscriber(s, n.pe, func(kv KV[K, E]) K { return dst(kv.V) }))
	base.subscribe(keyedSubscriber(s, n.pb))
	s.addNode(n)
	return n.out
}

// sumNode is JoinSum. Its vertex half is JoinMin's: x is broadcast, so every
// worker can read any source's values, and a worker keeps the edges into
// its keys, by source, each with its destination's slot, so a source's
// messages reach their keys with no probe. Its key half is the linear
// reduce's: a worker's keys are those it owns, each with its rows, its
// output history and its schedule (the reduce's, over the times the
// messages to a key carry).
//
// An x difference (u, v, d) at t reaches each of u's out-edges (e, c): it
// adds (d·c, v·d·c) to dst(e)'s row at t. An edge difference (u, e, d) at
// t pairs with u's whole x history, this run's x batch included
// (joinNode's bilinear rule): each entry (τ, v, d′) adds (d·d′, v·d·d′) to
// dst(e)'s row at t ⊔ τ. A base record (k, v, d) adds (d, v·d) to k's row
// at t. Each addition schedules its key at its row's time; a key due at t
// is answered from its rows ≤ t, and its output history ≤ t subtracted.
type sumNode[K comparable, E comparable] struct {
	s   *Scope
	out *Collection[KV[K, int64]]
	dst func(E) K // an edge's destination: the key its messages go to

	px *pendings[KV[K, int64]] // x, on every worker
	pe *pendings[KV[K, E]]     // edges, on the worker owning their destination
	pb *pendings[KV[K, int64]] // base, on the worker owning its key
	st []*sumShard[K, E]
}

// sumShard is one worker's share of a JoinSum, over one key space: a
// vertex's slot holds its x history and, for the edges into this worker's
// keys, its out-edges; a key's slot its rows, output history and schedule.
// A slot's histories and rows are clamped together at its first access
// after the frontier moved; the edges and the schedule are never clamped.
type sumShard[K comparable, E comparable] struct {
	keys  arrange.Keys[K]
	xs    arrange.History[int64]
	bySrc totalIndex[outEdge[E]]
	lin   arrange.SpanSlab[linRow]
	outs  arrange.History[int64]
	sched schedule

	srcs, dsts []uint32            // an edge batch's source and destination slots
	delta      []VD[int64]         // a key's output correction
	ob         batch[KV[K, int64]] // output scratch, lent to the subscribers at the end of each run
}

// outEdge is an edge in the by-source index: its destination's slot, and
// its value, which no message reads but which keeps two edges to the same
// key distinct pairs, as the index's consolidated batches need.
type outEdge[E comparable] struct {
	dst uint32
	e   E
}

// slot returns k's slot, where hk is k's hash, clamped.
func (sh *sumShard[K, E]) slot(hk uint64, k K) uint32 {
	s := sh.keys.Slot(hk, k)
	sh.clamp(s)
	return s
}

// clamp clamps slot s's histories and rows on the slot's first access after
// the frontier moved.
func (sh *sumShard[K, E]) clamp(s uint32) {
	if outer, stale := sh.keys.Stale(s); stale {
		sh.xs.Clamp(s, outer)
		sh.lin.Clamp(s, outer, func(r linRow) timestamp.Time { return r.t }, foldRows)
		sh.outs.Clamp(s, outer)
	}
}

// add adds (c, x) to key slot s's row at nt ⊒ t, the running time, and
// schedules the key there.
func (sh *sumShard[K, E]) add(s uint32, nt, t timestamp.Time, c, x int64) {
	sh.sched.touch(s, nt, t)
	addRow(&sh.lin, s, nt, c, x)
}

func (n *sumNode[K, E]) name() string { return "JoinSum" }

// run ingests worker w's deltas at t, folding each message difference into
// its key's rows, and answers every key due at t. Work is what the join and
// the sum reduce it replaces would count: the consolidated records in (a
// broadcast x record on the worker owning its vertex only), the index pairs
// and x entries visited, the rows read and the records out.
func (n *sumNode[K, E]) run(w int, t timestamp.Time) {
	sh, seed := n.st[w], n.s.seed
	xb, eb, bb := n.px.take(w, t), n.pe.take(w, t), n.pb.take(w, t)
	work := len(eb.recs) + len(bb.recs)
	if outer, compacting := n.s.compactionOuter(); compacting {
		sh.keys.Advance(outer)
	}
	sh.sched.begin(t, len(xb.recs)+work)

	// An x difference at t changes its messages at t. The edges this run
	// brings are not indexed yet: they pair with the x history below.
	for i, kv := range xb.recs {
		hk := maphash.Comparable(seed, kv.K)
		if owner(n.s, hk) == w {
			work++
		}
		u, d := sh.slot(hk, kv.K), xb.diffs[i]
		sh.xs.Add(u, kv.V, t, d)
		out := sh.bySrc.At(u)
		for _, p := range out {
			c := d * p.D
			sh.clamp(p.V.dst)
			sh.add(p.V.dst, t, t, c, kv.V*c)
		}
		work += len(out)
	}
	// An edge difference at t changes the messages of each of its source's
	// x entries, at t joined with the entry's time. Every edge is slotted
	// first (slotting may clamp u's entries), so the index makes room for
	// the batch's insertions at once.
	if len(eb.recs) > 0 {
		mustBeTotal("JoinSum's edge input", t)
		sh.bySrc.begin()
		srcs, dsts := sh.srcs[:0], sh.dsts[:0]
		for i, kv := range eb.recs {
			k := n.dst(kv.V)
			u, s := sh.slot(maphash.Comparable(seed, kv.K), kv.K), sh.slot(maphash.Comparable(seed, k), k)
			if eb.diffs[i] > 0 {
				sh.bySrc.Ask(u)
			}
			srcs, dsts = append(srcs, u), append(dsts, s)
		}
		sh.bySrc.Reserve()
		sh.srcs, sh.dsts = srcs, dsts
	}
	for i, kv := range eb.recs {
		e, d, u, s := kv.V, eb.diffs[i], sh.srcs[i], sh.dsts[i]
		sh.bySrc.add(u, outEdge[E]{s, e}, d)
		xs := sh.xs.At(u)
		for _, x := range xs {
			c := x.D * d
			sh.add(s, t.Join(x.T), t, c, x.V*c)
		}
		work += len(xs)
	}
	if len(bb.recs) > 0 {
		mustBeTotal("JoinSum's base input", t)
	}
	for i, kv := range bb.recs {
		d := bb.diffs[i]
		sh.add(sh.slot(maphash.Comparable(seed, kv.K), kv.K), t, t, d, kv.V*d)
	}

	// Answer every key due at t.
	ob := sh.ob.reset(t, 0)
	for _, s := range sh.sched.takeDue() {
		c, total, read := sumRows(sh.lin.At(s), t)
		work += read
		sh.delta = sh.delta[:0]
		if c != 0 {
			sh.delta = append(sh.delta, VD[int64]{total, 1})
		}
		sh.delta = correct(&sh.outs, s, sh.keys.KeyAt(s), t, sh.delta, ob)
	}
	n.s.addWork(w, work+len(ob.recs))
	n.out.emit(w, ob)
}

// reset drops every shard's key space, stores and schedule, keeping their
// columns.
func (n *sumNode[K, E]) reset() {
	n.px.reset()
	n.pe.reset()
	n.pb.reset()
	for _, sh := range n.st {
		sh.keys.Reset()
		sh.xs.Reset()
		sh.bySrc.reset()
		sh.lin.Reset()
		sh.outs.Reset()
		sh.sched.reset()
	}
}

func (n *sumNode[K, E]) hasPending(w int, t timestamp.Time) bool {
	return n.st[w].sched.hasPending(w, t, n.px, n.pe, n.pb)
}

func (n *sumNode[K, E]) minPending(w int) (timestamp.Time, bool) {
	return n.st[w].sched.minPending(w, n.px, n.pe, n.pb)
}
