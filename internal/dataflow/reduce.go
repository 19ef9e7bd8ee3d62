package dataflow

import (
	"cmp"
	"math/bits"
	"slices"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// keyTimes is one key's slot in a reduce: its time set, a span of the slab;
// 1 + the outer coordinate the set was last advanced to; and whether the key
// is on the running time's due list.
type keyTimes struct {
	span
	adv uint32
	due bool
}

// keyIndex is a reduce shard's keys with, per key, the times it has been or
// is scheduled to be evaluated at.
type keyIndex[K comparable] struct {
	keyTable[K]
	kts  []keyTimes // per slot
	slab []timestamp.Time
}

// slot returns k's slot, adding an empty one the first time k is seen.
func (ix *keyIndex[K]) slot(hk uint64, k K) uint32 {
	s := ix.keyTable.slot(hk, k)
	if int(s) == len(ix.kts) {
		ix.kts = append(ix.kts, keyTimes{})
	}
	return s
}

// reset forgets every key, keeping the columns' capacity.
func (ix *keyIndex[K]) reset() {
	ix.keyTable.reset()
	ix.kts, ix.slab = ix.kts[:0], ix.slab[:0]
}

func (ix *keyIndex[K]) times(kt *keyTimes) []timestamp.Time { return stretch(ix.slab, kt.span) }

// push adds t to kt's set.
func (ix *keyIndex[K]) push(kt *keyTimes, t timestamp.Time) { extend(&ix.slab, &kt.span, t, 2) }

// advance clamps kt's times below the frontier and de-duplicates them. Must
// not run while the key has scheduled re-evaluations (a clamped time would
// diverge from the schedule), which cannot happen here: the frontier only
// moves between versions, when the scope is quiescent, and every scheduled
// time has Outer at or above the version being drained.
func (ix *keyIndex[K]) advance(kt *keyTimes, outer uint32) {
	if kt.adv >= outer+1 {
		return
	}
	kt.adv = outer + 1
	ts := ix.times(kt)
	for i := range ts {
		ts[i].Outer = max(ts[i].Outer, outer)
	}
	slices.SortFunc(ts, func(a, b timestamp.Time) int {
		return cmp.Or(cmp.Compare(a.Outer, b.Outer), cmp.Compare(a.Inner, b.Inner))
	})
	kt.n = uint32(len(slices.Compact(ts)))
}

// dirtyKey is a key scheduled for evaluation: its hash and its slot.
type dirtyKey struct {
	hk   uint64
	slot uint32
}

// reduceShard is one worker's share of a reduce: the input and the output
// history as columnar arrangements (peers: one key hash serves both), and per
// key the times it has been, or is scheduled to be, evaluated at, with no
// per-key heap object: a slot in a flat index, a stretch of a shared slab.
// Keys due later wait in time-ordered (hash, slot) columns; a running time's
// keys are sorted by hash once and walked by one forward cursor per trace.
type reduceShard[K comparable, V comparable, O comparable] struct {
	ins   *arrange.Trace[K, V]
	outs  *arrange.Trace[K, O]
	keys  keyIndex[K]
	dirty arrange.Queue[dirtyKey] // keys scheduled at later times (no diffs)
	due   []dirtyKey              // the keys to evaluate at the running time, each once
	front []timestamp.Time        // the join closure's work list
	ic    arrange.Cursor[K, V]
	oc    arrange.Cursor[K, O]
	vals  []VD[V]         // a key's consolidated input
	idx   []uint32        // the fold's index, recycled across keys
	delta []VD[O]         // a key's output correction
	emit  func(O)         // the reducer's report: one more of O in delta
	ob    batch[KV[K, O]] // output scratch, lent to the subscribers at the end of each run
}

// reduceNode groups a keyed stream by key and applies a per-key multiset
// function. For each key with an input delta at time t, the node schedules
// re-evaluation at t and at the lattice-join closure of t with the key's
// existing times — the essential mechanism that lets differential computation
// combine changes arriving along the version axis with history recorded along
// the iteration axis. At each scheduled time it emits
// f(accumulated input ≤ t) − accumulated output ≤ t.
type reduceNode[K comparable, V comparable, O comparable] struct {
	s   *Scope
	out *Collection[KV[K, O]]
	nm  string
	// f sees a key's consolidated values. A linear reducer (f nil) sees only
	// n = Σ d and sum = Σ w(v)·d over them (sum is 0 when w is nil).
	f   func(k K, vals []VD[V], emit func(O))
	w   func(V) int64
	lin func(n, sum int64, emit func(O))

	p  *pendings[KV[K, V]]
	st []*reduceShard[K, V, O]
}

// Reduce applies f to the consolidated multiset of values of each key. f
// reports each output record, of multiplicity one, through emit; a key it
// reports nothing for has no output. f must be deterministic and must not
// retain vals. Reduce is the engine's equivalent of DD's reduce/group and
// subsumes min, max, sum, count, distinct and threshold.
func Reduce[K comparable, V comparable, O comparable](
	in *Collection[KV[K, V]], name string, f func(k K, vals []VD[V], emit func(O)),
) *Collection[KV[K, O]] {
	return newReduce(in, &reduceNode[K, V, O]{nm: name, f: f})
}

// reduceLinear is Reduce for a reducer of n = Σ d and sum = Σ w(v)·d over a
// key's values, folded without grouping them. On a collection (no negative
// multiplicities) a key without values is one with n = 0.
func reduceLinear[K comparable, V comparable, O comparable](
	in *Collection[KV[K, V]], name string, w func(V) int64, f func(n, sum int64, emit func(O)),
) *Collection[KV[K, O]] {
	return newReduce(in, &reduceNode[K, V, O]{nm: name, w: w, lin: f})
}

func newReduce[K comparable, V comparable, O comparable](in *Collection[KV[K, V]], n *reduceNode[K, V, O]) *Collection[KV[K, O]] {
	s := in.s
	n.s, n.out, n.p = s, newCollection[KV[K, O]](s), newPendings[KV[K, V]](s)
	n.st = make([]*reduceShard[K, V, O], s.workers)
	for w := range n.st {
		ins := arrange.NewTrace[K, V]()
		sh := &reduceShard[K, V, O]{ins: ins, outs: arrange.NewPeer[K, O](ins)}
		sh.emit = func(o O) { mergeVD(&sh.delta, o, 1) }
		n.st[w] = sh
		s.recycles(func() { sh.ob, sh.due, sh.dirty = batch[KV[K, O]]{}, nil, arrange.Queue[dirtyKey]{} })
	}
	in.subscribe(keyedSubscriber(s, n.p))
	s.addNode(n)
	return n.out
}

// ReduceMin keeps, per key, the minimum value present with positive
// multiplicity. The workhorse of label-propagation algorithms (WCC, BFS,
// shortest paths): the paper's UnionMin operator.
func ReduceMin[K comparable, V cmp.Ordered](in *Collection[KV[K, V]]) *Collection[KV[K, V]] {
	return Reduce(in, "min", func(_ K, vals []VD[V], emit func(V)) { pick(vals, -1, emit) })
}

// ReduceMax keeps, per key, the maximum value present with positive
// multiplicity (used by the SCC coloring algorithm).
func ReduceMax[K comparable, V cmp.Ordered](in *Collection[KV[K, V]]) *Collection[KV[K, V]] {
	return Reduce(in, "max", func(_ K, vals []VD[V], emit func(V)) { pick(vals, 1, emit) })
}

// pick emits the value present with positive multiplicity that comes first in
// direction dir (-1: the least, 1: the greatest), if there is one.
func pick[V cmp.Ordered](vals []VD[V], dir int, emit func(V)) {
	var best V
	found := false
	for _, vd := range vals {
		if vd.D > 0 && (!found || cmp.Compare(vd.V, best) == dir) {
			best, found = vd.V, true
		}
	}
	if found {
		emit(best)
	}
}

// ReduceSum emits, per key present, the diff-weighted sum of the values (used
// by PageRank to accumulate rank contributions).
func ReduceSum[K comparable](in *Collection[KV[K, int64]]) *Collection[KV[K, int64]] {
	return reduceLinear(in, "sum", func(v int64) int64 { return v }, func(n, sum int64, emit func(int64)) {
		if n != 0 {
			emit(sum)
		}
	})
}

// ReduceCount emits, per key, the total multiplicity of its values (e.g.
// vertex out-degrees from an edge stream keyed by source). Upstream of every
// loop, CountTotal computes the same with one count per key and no trace.
func ReduceCount[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, int64]] {
	return reduceLinear(in, "count", nil, func(n, _ int64, emit func(int64)) {
		if n != 0 {
			emit(n)
		}
	})
}

// Distinct reduces a stream to multiplicity one per record present with
// positive multiplicity. Upstream of every loop, DistinctTotal computes the
// same with one count per record and no trace.
func Distinct[R comparable](in *Collection[R]) *Collection[R] {
	keyed := Map(in, func(r R) KV[R, struct{}] { return KV[R, struct{}]{r, struct{}{}} })
	return Map(DistinctKeys(keyed), func(kv KV[R, struct{}]) R { return kv.K })
}

// DistinctKeys reduces a keyed stream to one (key, struct{}{}) record per key
// present, the shape Semijoin expects for its filter side.
func DistinctKeys[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, struct{}]] {
	return reduceLinear(in, "distinct", nil, func(n, _ int64, emit func(struct{})) {
		if n > 0 {
			emit(struct{}{})
		}
	})
}

func (n *reduceNode[K, V, O]) name() string { return "reduce:" + n.nm }

func (n *reduceNode[K, V, O]) run(w int, t timestamp.Time) {
	sh := n.st[w]
	b := n.p.take(w, t)
	work := len(b.recs)

	outer, compacting := n.s.compactionOuter()
	if compacting && work > 0 {
		// The first call after a frontier move folds each trace in one
		// pass, into a recycled column set when a free one has room for it
		// (see arrange.Trace.Advance); the rest are O(1).
		sh.ins.Advance(outer)
		sh.outs.Advance(outer)
	}

	// The keys due at t are those earlier runs scheduled and those this run's
	// input touches. Ingest the input, and schedule the join closure of t
	// with each touched key's known times.
	taken, _ := sh.dirty.Take(t, sh.due, nil)
	sh.due = slices.Grow(taken[:0], len(taken)+min(len(b.recs), len(sh.keys.kts))) // room for the keys the input can touch
	for _, d := range taken {
		sh.mark(d)
	}
	for i, kv := range b.recs {
		k, hk := kv.K, sh.ins.Hash(kv.K)
		slot := sh.keys.slot(hk, k)
		kt := &sh.keys.kts[slot]
		sh.keys.advance(kt, outer)
		sh.ins.AppendHashed(hk, k, kv.V, t, b.diffs[i])
		dk := dirtyKey{hk, slot}
		sh.mark(dk)
		front := append(sh.front[:0], t)
		for len(front) > 0 {
			nt := front[len(front)-1]
			front = front[:len(front)-1]
			ts := sh.keys.times(kt)
			if slices.Contains(ts, nt) {
				continue
			}
			for _, s := range ts {
				if j := nt.Join(s); j != nt && j != s && !slices.Contains(ts, j) {
					front = append(front, j)
				}
			}
			sh.keys.push(kt, nt)
			if nt != t {
				sh.dirty.Push(nt, []dirtyKey{dk}, nil)
			}
		}
		sh.front = front
	}

	// Re-evaluate every key due at t, in hash order.
	slices.SortFunc(sh.due, func(a, b dirtyKey) int { return cmp.Compare(a.hk, b.hk) })
	sh.ic.Open(sh.ins)
	sh.oc.Open(sh.outs)
	ob := sh.ob.reset(t, 0)
	for _, d := range sh.due {
		k := sh.keys.keys[d.slot]
		sh.keys.kts[d.slot].due = false
		in, rows := sh.ic.Seek(d.hk, k)
		work += rows
		sh.delta = sh.delta[:0]
		if n.f != nil {
			if acc := sh.fold(t, in, rows); len(acc) > 0 {
				n.f(k, acc, sh.emit)
			}
		} else {
			var c, sum int64
			for _, r := range in {
				for i, dd := range r.Diffs {
					if r.Times[i].Leq(t) {
						c += dd
						if n.w != nil {
							sum += n.w(r.Vals[i]) * dd
						}
					}
				}
			}
			n.lin(c, sum, sh.emit)
		}
		// Desired output minus accumulated emitted output; output sets are
		// tiny (usually one record), so a linear merge suffices.
		out, _ := sh.oc.Seek(d.hk, k)
		for _, r := range out {
			for i, o := range r.Vals {
				if r.Times[i].Leq(t) {
					mergeVD(&sh.delta, o, -r.Diffs[i])
				}
			}
		}
		for _, od := range sh.delta {
			if od.D != 0 {
				ob.add(KV[K, O]{k, od.V}, od.D)
			}
		}
	}
	// The output history grows after the walk, so no seal moves rows under
	// the open cursor.
	for i, kv := range ob.recs {
		sh.outs.Append(kv.K, kv.V, t, ob.diffs[i])
	}
	n.s.addWork(w, work)
	n.out.emit(w, ob)
}

// mark puts d's key on the due list unless it is there already.
func (sh *reduceShard[K, V, O]) mark(d dirtyKey) {
	if kt := &sh.keys.kts[d.slot]; !kt.due {
		kt.due = true
		sh.due = append(sh.due, d)
	}
}

// fold consolidates a key's rows at or before t by value into sh.vals and
// returns the values whose diffs do not cancel. Values meet through sh.idx,
// an open-addressing index on their stored hashes, recycled across keys
// (batch.consolidate's idiom).
func (sh *reduceShard[K, V, O]) fold(t timestamp.Time, in []arrange.Rows[V], rows int) []VD[V] {
	width := bits.Len(uint(2 * rows))
	if cap(sh.idx) < 1<<width {
		sh.idx = make([]uint32, 1<<width)
	}
	tab, acc := sh.idx[:1<<width], sh.vals[:0]
	clear(tab)
	for _, r := range in {
		for i, v := range r.Vals {
			if !r.Times[i].Leq(t) {
				continue
			}
			for p := r.Hvs[i] >> (64 - width); ; p++ {
				if s := &tab[p&uint64(len(tab)-1)]; *s == 0 {
					*s = uint32(len(acc) + 1)
					acc = append(acc, VD[V]{v, r.Diffs[i]})
					break
				} else if j := *s - 1; acc[j].V == v {
					acc[j].D += r.Diffs[i]
					break
				}
			}
		}
	}
	sh.vals = acc
	n := 0
	for _, vd := range acc {
		if vd.D != 0 {
			acc[n], n = vd, n+1
		}
	}
	return acc[:n]
}

// mergeVD accumulates d into the entry for v, appending if absent.
func mergeVD[V comparable](list *[]VD[V], v V, d Diff) {
	for i := range *list {
		if (*list)[i].V == v {
			(*list)[i].D += d
			return
		}
	}
	*list = append(*list, VD[V]{v, d})
}

// reset drops every shard's arrangements by releasing their batch stacks by
// reference, and truncates the key index, the slab and the schedule in place:
// O(1) per shard in accumulated history apart from clearing the index table,
// with every column kept for the next run.
func (n *reduceNode[K, V, O]) reset() {
	n.p.reset()
	for _, sh := range n.st {
		sh.ins.Reset()
		sh.outs.Reset()
		sh.keys.reset()
		sh.dirty.Reset()
	}
}

func (n *reduceNode[K, V, O]) hasPending(w int, t timestamp.Time) bool {
	return n.p.has(w, t) || n.st[w].dirty.Has(t)
}

func (n *reduceNode[K, V, O]) minPending(w int) (timestamp.Time, bool) {
	best, found := n.p.min(w)
	if t, ok := n.st[w].dirty.Min(); ok && (!found || t.LexLess(best)) {
		return t, true
	}
	return best, found
}
