package dataflow

import (
	"cmp"
	"slices"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// Relax says how JoinMin's and JoinMax's labels travel along edges. A label
// is a key K at a vertex N with a value V (a distance, a component id, a
// color); an edge is keyed by its source vertex and carries a value E that
// names its destination. With one label per vertex, K is N, Vertex the
// identity and At(k, n) n; MPSP tags each distance with its pair, and At
// keeps the tag.
type Relax[K comparable, N comparable, V cmp.Ordered, E comparable] struct {
	Vertex func(K) N    // the vertex a key labels
	At     func(K, N) K // the same label at another vertex
	Dst    func(E) N    // an edge's destination
	Step   func(V, E) V // the value a label proposes along an edge
}

// JoinMin computes, per key, the least value among the roots and the
// messages the loop variable x sends along edges:
//
//	ReduceMin(Concat(msgs, roots)), with msgs the join of x, by Vertex, and
//	edges: (At(k, Dst(e)), Step(v, e)) for each x record (k, v) and edge
//	(Vertex(k), e), with multiplicity their product,
//
// the paper's JoinMsg → UnionMin fused into one node that stores no message
// (join-on-demand). It keeps x arranged by vertex, the edges by source and
// by destination, the roots and its output history, and evaluates a key by
// re-reading its in-edges' sources' labels. x may carry any time; the edges
// and roots are upstream of every loop, and a delta on either at an inner
// time other than 0 panics (see mustBeTotal).
func JoinMin[K comparable, N comparable, V cmp.Ordered, E comparable](
	x *Collection[KV[K, V]], edges *Collection[KV[N, E]], roots *Collection[KV[K, V]], r Relax[K, N, V, E],
) *Collection[KV[K, V]] {
	return newRelax(x, edges, roots, r, "JoinMin", -1)
}

// JoinMax is JoinMin keeping the greatest value: ReduceMax(Concat(msgs,
// roots)).
func JoinMax[K comparable, N comparable, V cmp.Ordered, E comparable](
	x *Collection[KV[K, V]], edges *Collection[KV[N, E]], roots *Collection[KV[K, V]], r Relax[K, N, V, E],
) *Collection[KV[K, V]] {
	return newRelax(x, edges, roots, r, "JoinMax", 1)
}

// relaxNode is JoinMin and JoinMax. Keys are owned by the worker owning
// their vertex, and so are the edges into it and its roots; x is broadcast,
// so every worker can read any source's labels. A worker's edges are those
// into its vertices, indexed twice: by source, to fan a label's change out to
// the keys it reaches, and by destination, to evaluate a key.
//
// The schedule is the reduce's, over the times the messages to a key would
// carry: a change to x at t makes the keys it reaches due at t, an edge
// change at t the keys it reaches due at t ⊔ et for each time et of its
// source's labels, and a root change its key due at t, each closed under
// lattice joins with the key's known times. A key due at t is evaluated from
// x ≤ t, the edges and the roots, and its output history ≤ t subtracted.
type relaxNode[K comparable, N comparable, V cmp.Ordered, E comparable] struct {
	s   *Scope
	op  string
	dir int // pick's direction
	out *Collection[KV[K, V]]
	r   Relax[K, N, V, E]

	px *pendings[KV[K, V]] // x, on every worker
	pe *pendings[KV[N, E]] // edges, on the worker owning their destination
	pr *pendings[KV[K, V]] // roots, on the worker owning their vertex
	st []*relaxShard[K, N, V, E]
}

// inEdge is an edge in the by-destination index: its source's slot in the
// by-source index, and its value.
type inEdge[E comparable] struct {
	src uint32
	e   E
}

// relaxShard is one worker's share of a JoinMin or JoinMax. xs, bySrc and
// byDst hash vertices with xs's seed, roots and the schedule hash keys with
// outs's.
type relaxShard[K comparable, N comparable, V cmp.Ordered, E comparable] struct {
	xs    *arrange.Trace[N, KV[K, V]] // all of x, by vertex
	bySrc totalIndex[N, E]
	byDst totalIndex[N, inEdge[E]]
	roots totalIndex[K, V]
	outs  *arrange.Trace[K, V]
	sched schedule[K]

	// Per by-source slot, whether x has ever held a label of the source (a
	// source it never labeled costs its in-edges no lookup), and the run's
	// cache of its labels ≤ t, consolidated: a stretch of one slab, valid
	// while its epoch is the run's.
	epoch   uint32
	sources []source
	slab    []VD[KV[K, V]]

	srcs, dsts []uint32 // an edge batch's slots, by source and by destination
	cands      []VD[V]  // a key's candidate values
	delta      []VD[V]  // a key's output correction
	emit       func(V)
	ob         batch[KV[K, V]] // output scratch, lent to the subscribers at the end of each run
}

// source is a by-source slot's entry (see relaxShard.sources).
type source struct {
	off, n, epoch uint32
	labeled       bool
}

func newRelax[K comparable, N comparable, V cmp.Ordered, E comparable](
	x *Collection[KV[K, V]], edges *Collection[KV[N, E]], roots *Collection[KV[K, V]], r Relax[K, N, V, E],
	op string, dir int,
) *Collection[KV[K, V]] {
	s := x.s
	n := &relaxNode[K, N, V, E]{
		s: s, op: op, dir: dir, out: newCollection[KV[K, V]](s), r: r,
		px: newPendings[KV[K, V]](s),
		pe: newPendings[KV[N, E]](s),
		pr: newPendings[KV[K, V]](s),
		st: make([]*relaxShard[K, N, V, E], s.workers),
	}
	for w := range n.st {
		sh := &relaxShard[K, N, V, E]{xs: arrange.NewTrace[N, KV[K, V]](), outs: arrange.NewTrace[K, V]()}
		sh.emit = func(v V) { mergeVD(&sh.delta, v, 1) }
		n.st[w] = sh
		s.recycles(func() { sh.ob = batch[KV[K, V]]{}; sh.sched.release() })
	}
	x.subscribe(broadcastSubscriber(s, n.px))
	edges.subscribe(routedSubscriber(s, n.pe, func(kv KV[N, E]) N { return r.Dst(kv.V) }))
	roots.subscribe(routedSubscriber(s, n.pr, func(kv KV[K, V]) N { return r.Vertex(kv.K) }))
	s.addNode(n)
	return n.out
}

func (n *relaxNode[K, N, V, E]) name() string { return n.op }

// run ingests worker w's deltas at t, schedules the keys they reach, and
// evaluates every key due at t. Work is the consolidated records in, the
// index pairs and x rows visited (a cached source's labels count once per
// run), and the records out.
func (n *relaxNode[K, N, V, E]) run(w int, t timestamp.Time) {
	sh, r := n.st[w], &n.r
	xb, eb, rb := n.px.take(w, t), n.pe.take(w, t), n.pr.take(w, t)
	work := len(xb.recs) + len(eb.recs) + len(rb.recs)
	outer, compacting := n.s.compactionOuter()
	if compacting && work > 0 {
		sh.xs.Advance(outer)
		sh.outs.Advance(outer)
	}
	sh.sched.begin(t, work)

	// A label change at t changes its messages at t. The edges this run
	// brings are not indexed yet: they pair with the labels below.
	for i, kv := range xb.recs {
		u := r.Vertex(kv.K)
		hu := sh.xs.Hash(u)
		sh.xs.AppendHashed(hu, u, kv, t, xb.diffs[i])
		src, ok := sh.bySrc.Find(hu, u)
		if !ok {
			continue
		}
		sh.sources[src].labeled = true
		out := sh.bySrc.slab.At(src)
		for _, p := range out {
			k := r.At(kv.K, r.Dst(p.V))
			sh.sched.touch(sh.outs.Hash(k), k, t, t, outer)
		}
		work += len(out)
	}
	// An edge change at t changes the messages of each of its source's
	// labels, at t joined with the label's time. Every edge is slotted
	// first, so each index makes room for the batch's insertions at once.
	if len(eb.recs) > 0 {
		mustBeTotal(n.op+"'s edge input", t)
		sh.bySrc.begin()
		sh.byDst.begin()
		srcs, dsts := sh.srcs[:0], sh.dsts[:0]
		for i, kv := range eb.recs {
			u, v := kv.K, r.Dst(kv.V)
			src, dst := sh.bySrc.slot(sh.xs.Hash(u), u), sh.byDst.slot(sh.xs.Hash(v), v)
			if int(src) == len(sh.sources) {
				sh.sources = append(sh.sources, source{})
			}
			if eb.diffs[i] > 0 {
				sh.bySrc.slab.Ask(src)
				sh.byDst.slab.Ask(dst)
			}
			srcs, dsts = append(srcs, src), append(dsts, dst)
		}
		sh.bySrc.slab.Reserve()
		sh.byDst.slab.Reserve()
		sh.srcs, sh.dsts = srcs, dsts
	}
	for i, kv := range eb.recs {
		u, e, d, src := kv.K, kv.V, eb.diffs[i], sh.srcs[i]
		v := r.Dst(e)
		sh.bySrc.addAt(src, e, d)
		sh.byDst.addAt(sh.dsts[i], inEdge[E]{src, e}, d)
		rows := sh.xs.KeyHashed(sh.bySrc.HashAt(src), u, func(x KV[K, V], et timestamp.Time, _ int64) {
			k := r.At(x.K, v)
			sh.sched.touch(sh.outs.Hash(k), k, t.Join(et), t, outer)
		})
		if rows > 0 {
			sh.sources[src].labeled = true
		}
		work += rows
	}
	if len(rb.recs) > 0 {
		mustBeTotal(n.op+"'s root input", t)
		sh.roots.begin()
	}
	for i, kv := range rb.recs {
		hk := sh.outs.Hash(kv.K)
		sh.roots.add(hk, kv.K, kv.V, rb.diffs[i])
		sh.sched.touch(hk, kv.K, t, t, outer)
	}

	// Evaluate every key due at t.
	if sh.epoch++; sh.epoch == 0 {
		for i := range sh.sources {
			sh.sources[i].epoch = 0
		}
		sh.epoch = 1
	}
	sh.slab = sh.slab[:0]
	ob := sh.ob.reset(t, 0)
	for _, d := range sh.sched.takeDue() {
		k := sh.sched.keys.KeyAt(d.slot)
		v := r.Vertex(k)
		// The candidates are kept for the rare key with a negative count;
		// otherwise the best positive one is the answer.
		cands, neg := sh.cands[:0], false
		var best V
		found := false
		in := sh.byDst.pairs(sh.xs.Hash(v), v)
		for _, p := range in {
			c := &sh.sources[p.V.src]
			if !c.labeled {
				continue
			}
			from := r.At(k, sh.bySrc.KeyAt(p.V.src))
			for _, l := range sh.labels(c, p.V.src, t, &work) {
				if l.V.K != from {
					continue
				}
				m := VD[V]{r.Step(l.V.V, p.V.e), l.D * p.D}
				if cands, neg = append(cands, m), neg || m.D < 0; m.D > 0 && (!found || cmp.Compare(m.V, best) == n.dir) {
					best, found = m.V, true
				}
			}
		}
		rs := sh.roots.pairs(d.hk, k)
		for _, p := range rs {
			if cands, neg = append(cands, p), neg || p.D < 0; p.D > 0 && (!found || cmp.Compare(p.V, best) == n.dir) {
				best, found = p.V, true
			}
		}
		work += len(in) + len(rs)
		sh.cands, sh.delta = cands, sh.delta[:0]
		switch {
		case neg:
			// A negative count may cancel a value another source holds: only
			// then does pick need the candidates consolidated.
			pick(consolidateVD(cands), n.dir, sh.emit)
		case found:
			sh.emit(best)
		}
		for _, e := range sh.outs.Entries(d.hk, k) {
			if e.T.Leq(t) {
				mergeVD(&sh.delta, e.V, -e.D)
			}
		}
		for _, od := range sh.delta {
			if od.D != 0 {
				ob.add(KV[K, V]{k, od.V}, od.D)
			}
		}
	}
	// The output history grows after the walk, so no key's entries move
	// while they are read.
	for i, kv := range ob.recs {
		sh.outs.Append(kv.K, kv.V, t, ob.diffs[i])
	}
	n.s.addWork(w, work+len(ob.recs))
	n.out.emit(w, ob)
}

// labels returns the labels ≤ t of the source in by-source slot s, whose
// entry is c, with their counts consolidated and none zero: from the run's
// cache, or read from x, adding the rows visited to work, and cached.
func (sh *relaxShard[K, N, V, E]) labels(c *source, s uint32, t timestamp.Time, work *int) []VD[KV[K, V]] {
	if c.epoch != sh.epoch {
		off := len(sh.slab)
		*work += sh.xs.KeyHashed(sh.bySrc.HashAt(s), sh.bySrc.KeyAt(s), func(x KV[K, V], et timestamp.Time, d int64) {
			if !et.Leq(t) {
				return
			}
			for i := range sh.slab[off:] { // a source's labels are a handful
				if l := &sh.slab[off+i]; l.V == x {
					l.D += d
					return
				}
			}
			sh.slab = append(sh.slab, VD[KV[K, V]]{x, d})
		})
		ls := sh.slab[off:]
		m := 0
		for _, l := range ls {
			if l.D != 0 {
				ls[m], m = l, m+1
			}
		}
		sh.slab = sh.slab[:off+m]
		c.off, c.n, c.epoch = uint32(off), uint32(m), sh.epoch
	}
	return sh.slab[c.off : c.off+c.n]
}

// consolidateVD sorts vals by value, sums the counts of equal values and
// drops those that cancel, in place.
func consolidateVD[V cmp.Ordered](vals []VD[V]) []VD[V] {
	slices.SortFunc(vals, func(a, b VD[V]) int { return cmp.Compare(a.V, b.V) })
	m := 0
	for i, j := 0, 0; i < len(vals); i = j {
		d := Diff(0)
		for j = i; j < len(vals) && vals[j].V == vals[i].V; j++ {
			d += vals[j].D
		}
		if d != 0 {
			vals[m], m = VD[V]{vals[i].V, d}, m+1
		}
	}
	return vals[:m]
}

// reset drops every shard's stores, schedule and source entries, keeping
// their columns.
func (n *relaxNode[K, N, V, E]) reset() {
	n.px.reset()
	n.pe.reset()
	n.pr.reset()
	for _, sh := range n.st {
		sh.xs.Reset()
		sh.outs.Reset()
		sh.bySrc.reset()
		sh.byDst.reset()
		sh.roots.reset()
		sh.sched.reset()
		sh.sources = sh.sources[:0]
	}
}

func (n *relaxNode[K, N, V, E]) hasPending(w int, t timestamp.Time) bool {
	return n.px.has(w, t) || n.pe.has(w, t) || n.pr.has(w, t) || n.st[w].sched.dirty.Has(t)
}

func (n *relaxNode[K, N, V, E]) minPending(w int) (timestamp.Time, bool) {
	best, found := n.st[w].sched.dirty.Min()
	lower := func(t timestamp.Time, ok bool) {
		if ok && (!found || t.LexLess(best)) {
			best, found = t, true
		}
	}
	lower(n.px.min(w))
	lower(n.pe.min(w))
	lower(n.pr.min(w))
	return best, found
}
