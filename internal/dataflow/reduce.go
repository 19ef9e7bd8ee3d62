package dataflow

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// reduceShard is one worker's share of a reduce: its input, the output
// history as a per-key arrangement, and the schedule of the times each key
// has been, or is to be, evaluated at. A general reducer's input is an
// arrangement too, a peer of the output's (one key hash serves both). A
// linear reducer's is, per key, a span of (time, n, Σ) rows, one per time
// its records arrived at, in the slot the schedule gives the key, and
// clamped to the frontier with the key's times; a run's batch is folded to
// one (n, Σ) per key before it is ingested.
type reduceShard[K comparable, V comparable, O comparable] struct {
	ins   *arrange.Trace[K, V]     // a general reducer's input; nil for a linear one
	lin   arrange.SpanSlab[linRow] // a linear reducer's input, per schedule slot
	outs  *arrange.Trace[K, O]
	sched schedule[K]
	seed  maphash.Seed    // hashes a key's values for the fold
	vals  []VD[V]         // a key's consolidated input
	idx   []uint32        // the fold's index, recycled across keys and runs
	folds []keyFold[K]    // a linear reducer's batch, folded per key
	delta []VD[O]         // a key's output correction
	emit  func(O)         // the reducer's report: one more of O in delta
	ob    batch[KV[K, O]] // output scratch, lent to the subscribers at the end of each run
}

// linRow is a linear reducer's input at one key and time: n = Σ d and
// sum = Σ w(v)·d over the records that arrived there.
type linRow struct {
	t      timestamp.Time
	n, sum int64
}

// keyFold is a linear reducer's batch at one key, hk its hash: n = Σ d and
// sum = Σ w(v)·d over the batch's records of k.
type keyFold[K comparable] struct {
	hk     uint64
	k      K
	n, sum int64
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
// key's values. No value is stored: a run's batch is folded per key (a
// combiner, as GraphX sums a vertex's messages), each key's fold is added to
// its row at the running time, and a key is evaluated from the sum of its
// rows at or below t (Differential Dataflow's explode, with (n, Σ) as the
// difference). On a collection (no negative multiplicities) a key without
// values is one with n = 0.
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
		sh := &reduceShard[K, V, O]{outs: arrange.NewTrace[K, O](), seed: maphash.MakeSeed()}
		if n.lin == nil {
			sh.ins = arrange.NewPeer[K, V](sh.outs)
		}
		sh.emit = func(o O) { mergeVD(&sh.delta, o, 1) }
		n.st[w] = sh
		s.recycles(func() { sh.ob = batch[KV[K, O]]{}; sh.sched.release() })
	}
	in.subscribe(keyedSubscriber(s, n.p))
	s.addNode(n)
	return n.out
}

// ReduceMin keeps, per key, the minimum value present with positive
// multiplicity: the paper's UnionMin operator. Label propagation over edges
// (WCC, BFS, shortest paths) uses JoinMin, which fuses it with the message
// join and stores no message; ReduceMin is its reference and serves loops
// whose messages are not a join with edges (SCC's backward confirmation).
func ReduceMin[K comparable, V cmp.Ordered](in *Collection[KV[K, V]]) *Collection[KV[K, V]] {
	return Reduce(in, "min", func(_ K, vals []VD[V], emit func(V)) { pick(vals, -1, emit) })
}

// ReduceMax keeps, per key, the maximum value present with positive
// multiplicity; JoinMax fuses it with a message join (SCC's coloring).
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
// by PageRank to accumulate rank contributions). It is linear: a key keeps
// one (n, Σ) per time, not its values.
func ReduceSum[K comparable](in *Collection[KV[K, int64]]) *Collection[KV[K, int64]] {
	return reduceLinear(in, "sum", func(v int64) int64 { return v }, func(n, sum int64, emit func(int64)) {
		if n != 0 {
			emit(sum)
		}
	})
}

// ReduceCount emits, per key, the total multiplicity of its values (e.g.
// vertex out-degrees from an edge stream keyed by source). It is linear: a
// key keeps one count per time, not its values. Upstream of every loop,
// CountTotal computes the same with one count per key and no times.
func ReduceCount[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, int64]] {
	return reduceLinear(in, "count", nil, func(n, _ int64, emit func(int64)) {
		if n != 0 {
			emit(n)
		}
	})
}

// Distinct reduces a stream to multiplicity one per record present with
// positive multiplicity. It is linear: a record keeps one count per time.
// Upstream of every loop, DistinctTotal computes the same with one count per
// record and no times.
func Distinct[R comparable](in *Collection[R]) *Collection[R] {
	keyed := Map(in, func(r R) KV[R, struct{}] { return KV[R, struct{}]{r, struct{}{}} })
	return Map(distinctKeys(keyed), func(kv KV[R, struct{}]) R { return kv.K })
}

// distinctKeys reduces a keyed stream to one (key, struct{}{}) record per
// key present.
func distinctKeys[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, struct{}]] {
	return reduceLinear(in, "distinct", nil, func(n, _ int64, emit func(struct{})) {
		if n > 0 {
			emit(struct{}{})
		}
	})
}

func (n *reduceNode[K, V, O]) name() string { return "reduce:" + n.nm }

func (n *reduceNode[K, V, O]) run(w int, t timestamp.Time) {
	sh := n.st[w]
	var b *batch[KV[K, V]]
	if n.lin != nil {
		b = n.p.takeRaw(w, t)
		sh.foldKeys(b, n.w) // and empties b
	} else {
		b = n.p.take(w, t)
	}
	work := len(b.recs) + len(sh.folds) // a shard has records or folds, not both

	outer, compacting := n.s.compactionOuter()
	if compacting && work > 0 {
		// Each trace records the frontier; a key's entries are clamped the
		// next time the key is touched.
		if sh.ins != nil {
			sh.ins.Advance(outer)
		}
		sh.outs.Advance(outer)
	}

	// The keys due at t are those earlier runs scheduled and those this run's
	// input touches. Ingest the input, and schedule the join closure of t
	// with each touched key's known times.
	sh.sched.begin(t, work) // room for the keys the input can touch
	for _, f := range sh.folds {
		s, clamped := sh.sched.touch(f.hk, f.k, t, t, outer)
		if int(s) == sh.lin.Spans() {
			sh.lin.Add()
		} else if clamped {
			clampRows(&sh.lin, s, outer)
		}
		addRow(&sh.lin, s, t, f.n, f.sum)
	}
	if sh.ins != nil {
		for i, kv := range b.recs {
			k, hk := kv.K, sh.outs.Hash(kv.K)
			sh.ins.AppendHashed(hk, k, kv.V, t, b.diffs[i])
			sh.sched.touch(hk, k, t, t, outer)
		}
	}

	// Re-evaluate every key due at t.
	ob := sh.ob.reset(t, 0)
	for _, d := range sh.sched.takeDue() {
		k := sh.sched.keys.KeyAt(d.slot)
		sh.delta = sh.delta[:0]
		if n.lin != nil {
			rows := sh.lin.At(d.slot)
			work += len(rows)
			var c, sum int64
			for _, r := range rows {
				if r.t.Leq(t) {
					c, sum = c+r.n, sum+r.sum
				}
			}
			n.lin(c, sum, sh.emit)
		} else {
			in := sh.ins.Entries(d.hk, k)
			work += len(in)
			if acc := sh.fold(t, in); len(acc) > 0 {
				n.f(k, acc, sh.emit)
			}
		}
		// Desired output minus accumulated emitted output; output sets are
		// tiny (usually one record), so a linear merge suffices.
		for _, e := range sh.outs.Entries(d.hk, k) {
			if e.T.Leq(t) {
				mergeVD(&sh.delta, e.V, -e.D)
			}
		}
		for _, od := range sh.delta {
			if od.D != 0 {
				ob.add(KV[K, O]{k, od.V}, od.D)
			}
		}
	}
	// The output history grows after the walk, so no key's entries move
	// while they are read.
	for i, kv := range ob.recs {
		sh.outs.Append(kv.K, kv.V, t, ob.diffs[i])
	}
	n.s.addWork(w, work)
	n.out.emit(w, ob)
}

// foldKeys folds a linear reducer's raw batch into sh.folds, one (n, Σ) per
// key, and drops the keys whose folds cancel, then empties the batch: the
// batch's work is its keys. Keys meet through sh.idx on their hashes
// (batch.consolidate's idiom), so the fold is one pass, and a key is touched
// and its row updated once per run, not once per record.
func (sh *reduceShard[K, V, O]) foldKeys(b *batch[KV[K, V]], w func(V) int64) {
	width := bits.Len(uint(2 * len(b.recs)))
	if cap(sh.idx) < 1<<width {
		sh.idx = make([]uint32, 1<<width)
	}
	tab, acc := sh.idx[:1<<width], sh.folds[:0]
	clear(tab)
	for i, kv := range b.recs {
		hk, d := sh.outs.Hash(kv.K), b.diffs[i]
		var x int64
		if w != nil {
			x = w(kv.V) * d
		}
		for p := hk >> (64 - width); ; p++ {
			if s := &tab[p&uint64(len(tab)-1)]; *s == 0 {
				*s = uint32(len(acc) + 1)
				acc = append(acc, keyFold[K]{hk, kv.K, d, x})
				break
			} else if f := &acc[*s-1]; f.hk == hk && f.k == kv.K {
				f.n, f.sum = f.n+d, f.sum+x
				break
			}
		}
	}
	m := 0
	for _, f := range acc {
		if f.n != 0 || f.sum != 0 {
			acc[m], m = f, m+1
		}
	}
	sh.folds = acc[:m]
	b.recs, b.diffs = b.recs[:0], b.diffs[:0]
}

// addRow adds (d, x) to slot s's row at t, the running time, pushing one if
// the key has none. Rows are pushed in the scope's lexicographic time order
// and clamping keeps them sorted, so the running time's row, if any, is
// found from the end before the first row lexicographically below t.
func addRow(sl *arrange.SpanSlab[linRow], s uint32, t timestamp.Time, d, x int64) {
	rs := sl.At(s)
	for j := len(rs) - 1; j >= 0 && !rs[j].t.LexLess(t); j-- {
		if rs[j].t == t {
			rs[j].n, rs[j].sum = rs[j].n+d, rs[j].sum+x
			return
		}
	}
	sl.Push(s, linRow{t, d, x})
}

// clampRows clamps slot s's rows to the frontier, by the rule its times
// were clamped by in the same touch, merges rows that come to share a time
// and drops those that cancel.
func clampRows(sl *arrange.SpanSlab[linRow], s uint32, outer uint32) {
	rs := sl.At(s)
	for i := range rs {
		rs[i].t = arrange.ClampTime(rs[i].t, outer)
	}
	slices.SortFunc(rs, func(a, b linRow) int { return arrange.LexCmp(a.t, b.t) })
	m := 0
	for i := 0; i < len(rs); {
		r := rs[i]
		for i++; i < len(rs) && rs[i].t == r.t; i++ {
			r.n, r.sum = r.n+rs[i].n, r.sum+rs[i].sum
		}
		if r.n != 0 || r.sum != 0 {
			rs[m], m = r, m+1
		}
	}
	sl.Cut(s, m)
}

// fold consolidates a key's entries at or before t by value into sh.vals
// and returns the values whose diffs do not cancel. Values meet through
// sh.idx, an open-addressing index on their hashes, recycled across keys
// (batch.consolidate's idiom).
func (sh *reduceShard[K, V, O]) fold(t timestamp.Time, in []arrange.Entry[V]) []VD[V] {
	width := bits.Len(uint(2 * len(in)))
	if cap(sh.idx) < 1<<width {
		sh.idx = make([]uint32, 1<<width)
	}
	tab, acc := sh.idx[:1<<width], sh.vals[:0]
	clear(tab)
	for _, e := range in {
		if !e.T.Leq(t) {
			continue
		}
		for p := maphash.Comparable(sh.seed, e.V) >> (64 - width); ; p++ {
			if s := &tab[p&uint64(len(tab)-1)]; *s == 0 {
				*s = uint32(len(acc) + 1)
				acc = append(acc, VD[V]{e.V, e.D})
				break
			} else if j := *s - 1; acc[j].V == e.V {
				acc[j].D += e.D
				break
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

// reset truncates every shard's arrangements, linear rows and schedule in
// place: O(1) per shard in accumulated history apart from clearing the key
// tables, with every column kept for the next run.
func (n *reduceNode[K, V, O]) reset() {
	n.p.reset()
	for _, sh := range n.st {
		if sh.ins != nil {
			sh.ins.Reset()
		}
		sh.lin.Reset()
		sh.outs.Reset()
		sh.sched.reset()
	}
}

func (n *reduceNode[K, V, O]) hasPending(w int, t timestamp.Time) bool {
	return n.p.has(w, t) || n.st[w].sched.dirty.Has(t)
}

func (n *reduceNode[K, V, O]) minPending(w int) (timestamp.Time, bool) {
	best, found := n.p.min(w)
	if t, ok := n.st[w].sched.dirty.Min(); ok && (!found || t.LexLess(best)) {
		return t, true
	}
	return best, found
}
