package dataflow

import (
	"cmp"
	"hash/maphash"
	"math/bits"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// reduceShard is one worker's share of a reduce: per slot of its key space,
// the key's input, its output history and its schedule (see schedule). A
// general reducer's input is a history of its values. A linear reducer's is
// a span of (time, n, Σ) rows, one per time its records arrived at; a run's
// batch is folded to one (n, Σ) per key before it is ingested. A slot's
// input and output are clamped together, at its first access after the
// frontier moved (slot).
type reduceShard[K comparable, V comparable, O comparable] struct {
	keys  arrange.Keys[K]
	ins   arrange.History[V]       // a general reducer's input
	lin   arrange.SpanSlab[linRow] // a linear reducer's input
	outs  arrange.History[O]
	sched schedule
	seed  maphash.Seed    // the scope's: hashes keys, and a key's values for the fold
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
// function. For each key with an input delta at time t = (v, i), the node
// schedules re-evaluation at t and at the lattice-join closure of t with the
// key's times, (v, j) for each iteration j > i it holds — the mechanism that
// lets differential computation combine changes along the version axis with
// history along the iteration axis. At each scheduled time it emits
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
		sh := &reduceShard[K, V, O]{seed: s.seed}
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

// ReduceSum emits, per key present, the diff-weighted sum of the values. It
// is linear: a key keeps one (n, Σ) per time, not its values. A sum over
// messages joined from edges is JoinSum, which fuses the join with this
// reduce and keeps the same rows; ReduceSum is its reference.
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
	if outer, compacting := n.s.compactionOuter(); compacting {
		sh.keys.Advance(outer)
	}

	// The keys due at t are those earlier runs scheduled and those this run's
	// input touches: ingest it, and schedule each key it touches.
	sh.sched.begin(t, work) // room for the keys the input can touch
	for _, f := range sh.folds {
		if f.n == 0 && f.sum == 0 {
			// Nothing changed, but a key with stores is clamped, as the
			// general path's would be; a key never seen gets no slot.
			if s, ok := sh.keys.Find(f.hk, f.k); ok {
				sh.clamp(s)
			}
			continue
		}
		s := sh.slot(f.hk, f.k)
		sh.sched.touch(s, t, t)
		addRow(&sh.lin, s, t, f.n, f.sum)
	}
	for i, kv := range b.recs {
		s := sh.slot(maphash.Comparable(sh.seed, kv.K), kv.K)
		sh.ins.Add(s, kv.V, t, b.diffs[i])
		sh.sched.touch(s, t, t)
	}

	// Re-evaluate every key due at t.
	ob := sh.ob.reset(t, 0)
	for _, s := range sh.sched.takeDue() {
		k := sh.keys.KeyAt(s) // touched since the frontier moved: its stores are clamped
		sh.delta = sh.delta[:0]
		if n.lin != nil {
			c, sum, read := sumRows(sh.lin.At(s), t)
			work += read
			n.lin(c, sum, sh.emit)
		} else {
			in := sh.ins.At(s)
			work += len(in)
			if acc := sh.fold(t, in); len(acc) > 0 {
				n.f(k, acc, sh.emit)
			}
		}
		sh.delta = correct(&sh.outs, s, k, t, sh.delta, ob)
	}
	n.s.addWork(w, work)
	n.out.emit(w, ob)
}

// slot returns k's slot, where hk is k's hash, clamped.
func (sh *reduceShard[K, V, O]) slot(hk uint64, k K) uint32 {
	s := sh.keys.Slot(hk, k)
	sh.clamp(s)
	return s
}

// clamp clamps slot s's input and output history on the slot's first access
// after the frontier moved; the schedule needs no clamp (see schedule).
func (sh *reduceShard[K, V, O]) clamp(s uint32) {
	if outer, stale := sh.keys.Stale(s); stale {
		sh.ins.Clamp(s, outer)
		sh.lin.Clamp(s, outer, func(r linRow) timestamp.Time { return r.t }, foldRows)
		sh.outs.Clamp(s, outer)
	}
}

// foldKeys folds a linear reducer's raw batch into sh.folds, one (n, Σ) per
// key, then empties the batch: the batch's work is its keys. A key whose
// fold cancels to (0, 0) stays, so run clamps its slot, if it has one,
// without scheduling it. Keys meet through sh.idx on their hashes
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
		hk, d := maphash.Comparable(sh.seed, kv.K), b.diffs[i]
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
	sh.folds = acc
	b.recs, b.diffs = b.recs[:0], b.diffs[:0]
}

// addRow adds (d, x) to slot s's row at t, inserting one in its place if
// the key has none. A key's rows are sorted lexicographically by time
// (clamping keeps them so, and sumRows relies on it), and t is at or above
// the running time, so t's row or place is found from the end: a reduce's
// rows land at the running time, last; JoinSum's at several iterations of
// the running version in one run.
func addRow(sl *arrange.SpanSlab[linRow], s uint32, t timestamp.Time, d, x int64) {
	rs := sl.At(s)
	j := len(rs)
	for ; j > 0 && !rs[j-1].t.LexLess(t); j-- {
		if r := &rs[j-1]; r.t == t {
			r.n, r.sum = r.n+d, r.sum+x
			return
		}
	}
	sl.Push(s, linRow{t, d, x})
	if j < len(rs) {
		rs = sl.At(s)
		copy(rs[j+1:], rs[j:])
		rs[j] = linRow{t, d, x}
	}
}

// sumRows sums the rows rs at or below t into n and sum. The rows are
// sorted (addRow), and none lexicographically above t is ≤ t, so it stops
// at the first of those; read is the rows it read.
func sumRows(rs []linRow, t timestamp.Time) (n, sum int64, read int) {
	for i, r := range rs {
		if t.LexLess(r.t) {
			return n, sum, i + 1
		}
		if r.t.Leq(t) {
			n, sum = n+r.n, sum+r.sum
		}
	}
	return n, sum, len(rs)
}

// foldRows writes the linear rows rs[i:j], whose clamped time is t, merged
// at t to rs[m] unless they cancel, and returns the end of what it wrote
// (SpanSlab.Clamp's fold).
func foldRows(rs []linRow, i, j, m int, t timestamp.Time) int {
	r := linRow{t, rs[i].n, rs[i].sum}
	for _, o := range rs[i+1 : j] {
		r.n, r.sum = r.n+o.n, r.sum+o.sum
	}
	if r.n == 0 && r.sum == 0 {
		return m
	}
	rs[m] = r
	return m + 1
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

// correct adds key k's output correction at t to ob: delta, the output
// wanted at t, less slot s's output history accumulated ≤ t, each record
// also added to the history. Output sets are tiny (usually one record), so
// a linear merge suffices. It returns delta's column, for reuse.
func correct[K comparable, O comparable](outs *arrange.History[O], s uint32, k K, t timestamp.Time, delta []VD[O], ob *batch[KV[K, O]]) []VD[O] {
	for _, e := range outs.At(s) {
		if e.T.Leq(t) {
			mergeVD(&delta, e.V, -e.D)
		}
	}
	for _, od := range delta {
		if od.D != 0 {
			ob.add(KV[K, O]{k, od.V}, od.D)
			outs.Add(s, od.V, t, od.D)
		}
	}
	return delta
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

// reset truncates every shard's key space and stores in place: O(1) per
// shard in accumulated history apart from clearing the key table, with
// every column kept for the next run.
func (n *reduceNode[K, V, O]) reset() {
	n.p.reset()
	for _, sh := range n.st {
		sh.keys.Reset()
		sh.ins.Reset()
		sh.lin.Reset()
		sh.outs.Reset()
		sh.sched.reset()
	}
}

func (n *reduceNode[K, V, O]) hasPending(w int, t timestamp.Time) bool {
	return n.st[w].sched.hasPending(w, t, n.p)
}

func (n *reduceNode[K, V, O]) minPending(w int) (timestamp.Time, bool) {
	return n.st[w].sched.minPending(w, n.p)
}
