package dataflow

import (
	"cmp"
	"hash/maphash"
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
// the keys it reaches, and by destination, to walk a key's in-edges.
//
// The schedule is the reduce's, over the times the messages to a key would
// carry: a change to x at t makes the keys it reaches due at t, an edge
// change at t the keys it reaches due at t ⊔ et for each time et of its
// source's labels, and a root change its key due at t, each also at the
// key's later iterations (the closure). A key due at t is answered, and its
// output history ≤ t subtracted.
//
// A walk answers a key from x ≤ t, its in-edges and its roots. A key k due
// at t = (v, i) with v > 0 is mostly answered without one. The down-set
// splits, ↓t = ↓(v−1, i) ∪ {(v, i′) : i′ ≤ i}, so k's input at t is its
// input O at (v−1, i) plus Δ, the message differences to k in version v at
// iterations ≤ i. The output accumulated at (v−1, i) is O's pick: one value
// m with count 1, or nothing. Each message difference is noted at the key's
// slot where it is touched (an x delta with each out-edge, at t; an edge
// delta with each of its source's labels, at t ⊔ lt; a root, at t), for the
// version in flight only. With m⁺ Δ's best value whose consolidated count is
// positive, the answer is
//   - m⁺, if m⁺ is at or better than m or O is empty;
//   - else m, or nothing if O is empty;
//   - but a walk's, if Δ holds a negative count at a value at or better than
//     that answer: the old minimum was retracted, or a count goes negative.
//
// The rule is sound while O has no negative count at a value better than m,
// and none at all if O is empty: the values better than the answer then
// come to 0 and the answer's count stays positive, and the guard keeps the
// property for t. A walk whose consolidated candidates hold no negative count
// leaves none. So a shard applies the rule until one of its walks meets a
// negative count (x's may go negative when x comes from outside a loop), and
// walks every key from then on, until a reset. At version 0 there is nothing
// to differ from: nothing is noted and every key walks. The rule also needs
// the frontier below v, so (v−1, i)'s times stay apart from v's; a caller
// that compacts the version in flight gets walks.
//
// A message is not noted when the key's output before v has settled, by the
// message's time, on a value better than the message's (matters): the rule
// would skip it.
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

// inEdge is an edge in the by-destination index: its source's vertex slot,
// and its value.
type inEdge[E comparable] struct {
	src uint32
	e   E
}

// relaxShard is one worker's share of a JoinMin or JoinMax, over two key
// spaces. The keys' slots hold the schedule, the roots and the output
// history; the vertices' slots hold all of x (its labels, by vertex), the
// edges by source and by destination, and the run's label cache. A slot's
// histories are clamped together at its first access after the frontier
// moved (key, vertex); the schedule, roots and edges are never clamped.
type relaxShard[K comparable, N comparable, V cmp.Ordered, E comparable] struct {
	keys  arrange.Keys[K]
	sched schedule
	roots totalIndex[V]
	outs  arrange.History[V]

	verts arrange.Keys[N]
	xs    arrange.History[KV[K, V]]
	bySrc totalIndex[E]
	byDst totalIndex[inEdge[E]]

	// Per vertex slot, the run's cache of its labels ≤ t, consolidated: a
	// stretch of one slab, valid while its epoch is the run's.
	epoch   uint32
	sources []source
	slab    []VD[KV[K, V]]

	// The version in flight's message differences (Δ), noted where they are
	// touched: a log, emptied on entering a version, and per key slot its
	// last note, each note linking to the key's one before. The columns stay
	// across versions, Park and reset.
	notes  []msgNote[V]
	last   []lastNote // per key slot
	noteAt uint32     // 1 + the version the log holds
	neg    bool       // a walk met a negative count: every key walks until a reset
	walks  int        // in-edges walked, for tests

	srcs, dsts []uint32 // an edge batch's vertex slots, by source and by destination
	cands      []VD[V]  // a key's candidate values, or its consolidated Δ
	old        []VD[V]  // a key's output at (v−1, i)
	delta      []VD[V]  // a key's output correction
	emit       func(V)
	ob         batch[KV[K, V]] // output scratch, lent to the subscribers at the end of each run
}

// msgNote is a message difference (v, d) to a key at (the version in
// flight, inner), and 1 + the log index of the key's note before, 0 if none.
type msgNote[V any] struct {
	inner, prev uint32
	v           V
	d           Diff
}

// lastNote is a key slot's last note: 1 + its log index, in the log of
// version at − 1.
type lastNote struct{ at, i uint32 }

// source is a vertex slot's entry in the label cache (see relaxShard.sources).
type source struct{ off, n, epoch uint32 }

// key returns k's slot, clamping its output history on the slot's first
// access after the frontier moved.
func (sh *relaxShard[K, N, V, E]) key(seed maphash.Seed, k K) uint32 {
	s := sh.keys.Slot(maphash.Comparable(seed, k), k)
	if outer, stale := sh.keys.Stale(s); stale {
		sh.outs.Clamp(s, outer)
	}
	return s
}

// note records a message difference (v, d) to key slot s at (the version
// in flight, inner).
func (sh *relaxShard[K, N, V, E]) note(s uint32, v V, inner uint32, d Diff) {
	sh.last = arrange.Grow(sh.last, s)
	l := &sh.last[s]
	prev := uint32(0)
	if l.at == sh.noteAt {
		prev = l.i
	}
	if len(sh.notes) == cap(sh.notes) { // double: append's 1.25× steps would copy a large log many times
		sh.notes = slices.Grow(sh.notes, max(len(sh.notes), 64))
	}
	sh.notes = append(sh.notes, msgNote[V]{inner, prev, v, d})
	*l = lastNote{sh.noteAt, uint32(len(sh.notes))}
}

// vertex returns u's slot, with its labels clamped.
func (sh *relaxShard[K, N, V, E]) vertex(seed maphash.Seed, u N) uint32 {
	s := sh.verts.Slot(maphash.Comparable(seed, u), u)
	sh.freshVertex(s)
	return s
}

// freshVertex clamps vertex slot s's labels on the slot's first access after
// the frontier moved.
func (sh *relaxShard[K, N, V, E]) freshVertex(s uint32) {
	if outer, stale := sh.verts.Stale(s); stale {
		sh.xs.Clamp(s, outer)
	}
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
		sh := &relaxShard[K, N, V, E]{}
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
// answers every key due at t. Work is the consolidated records in, the
// index pairs and x rows visited (a cached source's labels count once per
// run), the Δ entries read, and the records out.
func (n *relaxNode[K, N, V, E]) run(w int, t timestamp.Time) {
	sh, r, seed := n.st[w], &n.r, n.s.seed
	xb, eb, rb := n.px.take(w, t), n.pe.take(w, t), n.pr.take(w, t)
	work := len(xb.recs) + len(eb.recs) + len(rb.recs)
	outer, compacting := n.s.compactionOuter()
	if compacting {
		sh.keys.Advance(outer)
		sh.verts.Advance(outer)
	}
	rule := t.Outer > 0 && !sh.neg && (!compacting || outer < t.Outer)
	if rule && sh.noteAt != t.Outer+1 {
		sh.notes, sh.noteAt = sh.notes[:0], t.Outer+1
	}
	sh.sched.begin(t, work)

	// A label change at t changes its messages at t. The edges this run
	// brings are not indexed yet: they pair with the labels below.
	for i, kv := range xb.recs {
		u := sh.vertex(seed, r.Vertex(kv.K))
		sh.xs.Add(u, kv, t, xb.diffs[i])
		out := sh.bySrc.At(u)
		for _, p := range out {
			s := sh.key(seed, r.At(kv.K, r.Dst(p.V)))
			sh.sched.touch(s, t, t)
			if m := r.Step(kv.V, p.V); rule && n.matters(sh, s, m, t) {
				sh.note(s, m, t.Inner, xb.diffs[i]*p.D)
			}
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
			src, dst := sh.vertex(seed, kv.K), sh.vertex(seed, r.Dst(kv.V))
			if eb.diffs[i] > 0 {
				sh.bySrc.Ask(src)
				sh.byDst.Ask(dst)
			}
			srcs, dsts = append(srcs, src), append(dsts, dst)
		}
		sh.bySrc.Reserve()
		sh.byDst.Reserve()
		sh.srcs, sh.dsts = srcs, dsts
	}
	for i, kv := range eb.recs {
		e, d, src := kv.V, eb.diffs[i], sh.srcs[i]
		v := r.Dst(e)
		sh.bySrc.add(src, e, d)
		sh.byDst.add(sh.dsts[i], inEdge[E]{src, e}, d)
		ls := sh.xs.At(src)
		for _, l := range ls {
			s, nt := sh.key(seed, r.At(l.V.K, v)), t.Join(l.T)
			sh.sched.touch(s, nt, t)
			if m := r.Step(l.V.V, e); rule && n.matters(sh, s, m, nt) {
				sh.note(s, m, nt.Inner, l.D*d)
			}
		}
		work += len(ls)
	}
	if len(rb.recs) > 0 {
		mustBeTotal(n.op+"'s root input", t)
		sh.roots.begin()
	}
	for i, kv := range rb.recs {
		s := sh.key(seed, kv.K)
		sh.roots.add(s, kv.V, rb.diffs[i])
		sh.sched.touch(s, t, t)
		if rule {
			sh.note(s, kv.V, t.Inner, rb.diffs[i])
		}
	}

	// Answer every key due at t.
	if sh.epoch++; sh.epoch == 0 {
		for i := range sh.sources {
			sh.sources[i].epoch = 0
		}
		sh.epoch = 1
	}
	sh.slab = sh.slab[:0]
	ob := sh.ob.reset(t, 0)
	for _, s := range sh.sched.takeDue() {
		k := sh.keys.KeyAt(s) // touched since the frontier moved: its stores are clamped
		sh.delta = sh.delta[:0]
		if !rule || !n.byRule(sh, s, t, &work) {
			n.walk(sh, s, k, t, &work)
		}
		for _, e := range sh.outs.At(s) {
			if e.T.Leq(t) {
				mergeVD(&sh.delta, e.V, -e.D)
			}
		}
		for _, od := range sh.delta {
			if od.D != 0 {
				ob.add(KV[K, V]{k, od.V}, od.D)
				sh.outs.Add(s, od.V, t, od.D)
			}
		}
	}
	n.s.addWork(w, work+len(ob.recs))
	n.out.emit(w, ob)
}

// better reports whether a is a better value than b: less for JoinMin,
// greater for JoinMax.
func (n *relaxNode[K, N, V, E]) better(a, b V) bool { return cmp.Compare(a, b) == n.dir }

// matters reports whether a message of value m to key slot s at nt may
// count in an answer by the rule. It does not if every time of the key's
// output before nt's version is ≤ nt, and that output accumulates to one
// value better than m: every answer at or after nt then starts from that
// old answer, and the rule skips values worse than it.
func (n *relaxNode[K, N, V, E]) matters(sh *relaxShard[K, N, V, E], s uint32, m V, nt timestamp.Time) bool {
	was, had, ok, settled := sh.oldAnswer(s, nt)
	return !settled || !ok || !had || !n.better(was, m)
}

// byRule answers key slot s, due at t, from its output at (t.Outer−1,
// t.Inner) and its Δ ≤ t, by the rule of relaxNode's doc, and reports
// whether it could: false leaves the key to a walk.
func (n *relaxNode[K, N, V, E]) byRule(sh *relaxShard[K, N, V, E], s uint32, t timestamp.Time, work *int) bool {
	m, had, ok, _ := sh.oldAnswer(s, t)
	if !ok {
		return false
	}
	// A value worse than m can be neither the answer nor a hidden retraction.
	ds, neg := sh.cands[:0], false
	if int(s) < len(sh.last) && sh.last[s].at == sh.noteAt {
		for i := sh.last[s].i; i != 0; i = sh.notes[i-1].prev {
			e := &sh.notes[i-1]
			if (timestamp.Time{Outer: t.Outer, Inner: e.inner}).Leq(t) && !(had && n.better(m, e.v)) {
				ds, neg = append(ds, VD[V]{e.v, e.d}), neg || e.d < 0
			}
			*work++
		}
	}
	sh.cands = ds
	if neg {
		ds = consolidateVD(ds)
	}
	var best V
	found := false
	for _, d := range ds {
		if d.D > 0 && (!found || n.better(d.V, best)) {
			best, found = d.V, true
		}
	}
	if had && (!found || n.better(m, best)) {
		best, found = m, true
	}
	for _, d := range ds {
		if d.D < 0 && (!found || !n.better(best, d.V)) {
			return false
		}
	}
	if found {
		sh.emit(best)
	}
	return true
}

// oldAnswer reads key slot s's output before t's version, accumulated at
// (t.Outer−1, t.Inner): its value with count 1, if it has one, whether it
// is a pick's output (every other count 0), and whether every time of that
// output is ≤ t.
func (sh *relaxShard[K, N, V, E]) oldAnswer(s uint32, t timestamp.Time) (m V, had, ok, settled bool) {
	old := sh.old[:0]
	settled = true
	for _, e := range sh.outs.At(s) {
		switch {
		case e.T.Outer >= t.Outer:
		case e.T.Leq(t):
			mergeVD(&old, e.V, e.D)
		default:
			settled = false
		}
	}
	sh.old = old
	for _, o := range old {
		switch {
		case o.D == 0:
		case o.D == 1 && !had:
			m, had = o.V, true
		default:
			return m, false, false, settled
		}
	}
	return m, had, true, settled
}

// walk answers key k, in slot s, due at t, from its in-edges' sources'
// labels ≤ t and its roots. The candidates are kept for the rare key with a
// negative count, which also stops the shard's rule; otherwise the best
// positive one is the answer.
func (n *relaxNode[K, N, V, E]) walk(sh *relaxShard[K, N, V, E], s uint32, k K, t timestamp.Time, work *int) {
	r := &n.r
	cands, neg := sh.cands[:0], false
	var best V
	found := false
	in := sh.byDst.At(sh.vertex(n.s.seed, r.Vertex(k)))
	for _, p := range in {
		from := r.At(k, sh.verts.KeyAt(p.V.src))
		for _, l := range sh.labels(p.V.src, t, work) {
			if l.V.K != from {
				continue
			}
			m := VD[V]{r.Step(l.V.V, p.V.e), l.D * p.D}
			if cands, neg = append(cands, m), neg || m.D < 0; m.D > 0 && (!found || n.better(m.V, best)) {
				best, found = m.V, true
			}
		}
	}
	rs := sh.roots.At(s)
	for _, p := range rs {
		if cands, neg = append(cands, p), neg || p.D < 0; p.D > 0 && (!found || n.better(p.V, best)) {
			best, found = p.V, true
		}
	}
	*work += len(in) + len(rs)
	sh.walks += len(in)
	sh.cands = cands
	switch {
	case neg:
		// A negative count may cancel a value another source holds: only
		// then does pick need the candidates consolidated.
		cands = consolidateVD(cands)
		for _, c := range cands {
			sh.neg = sh.neg || c.D < 0
		}
		pick(cands, n.dir, sh.emit)
	case found:
		sh.emit(best)
	}
}

// labels returns the labels ≤ t of the source in vertex slot s, with their
// counts consolidated and none zero: from the run's cache, or read from x,
// adding the rows visited to work, and cached.
func (sh *relaxShard[K, N, V, E]) labels(s uint32, t timestamp.Time, work *int) []VD[KV[K, V]] {
	sh.sources = arrange.Grow(sh.sources, s)
	c := &sh.sources[s]
	if c.epoch != sh.epoch {
		sh.freshVertex(s)
		off, es := len(sh.slab), sh.xs.At(s)
		*work += len(es)
	next:
		for _, e := range es {
			if !e.T.Leq(t) {
				continue
			}
			for i := range sh.slab[off:] { // a source's labels are a handful
				if l := &sh.slab[off+i]; l.V == e.V {
					l.D += e.D
					continue next
				}
			}
			sh.slab = append(sh.slab, VD[KV[K, V]]{e.V, e.D})
		}
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

// reset drops every shard's key spaces, stores, schedule, label cache and
// Δ, keeping their columns, and lets the rule run again.
func (n *relaxNode[K, N, V, E]) reset() {
	n.px.reset()
	n.pe.reset()
	n.pr.reset()
	for _, sh := range n.st {
		sh.keys.Reset()
		sh.sched.reset()
		sh.roots.reset()
		sh.outs.Reset()
		sh.verts.Reset()
		sh.xs.Reset()
		sh.bySrc.reset()
		sh.byDst.reset()
		sh.sources = sh.sources[:0]
		sh.notes, sh.last, sh.noteAt, sh.neg = sh.notes[:0], sh.last[:0], 0, false
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
