package dataflow

import (
	"cmp"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// keyTimes is the per-key scheduling metadata of a reduce: the set of
// distinct times at which the key has been (or is scheduled to be)
// evaluated. The bulky input/output histories live in the shard's columnar
// arrangements; only this small set stays per-key.
type keyTimes struct {
	times []timestamp.Time
	adv   uint32 // 1 + the outer coordinate the set was last advanced to
}

func (kt *keyTimes) hasTime(t timestamp.Time) bool {
	for _, s := range kt.times {
		if s == t {
			return true
		}
	}
	return false
}

// advance clamps known times below the frontier and deduplicates. Must not
// run while the key has scheduled re-evaluations (a clamped time would
// diverge from the dirty map), which cannot happen here: the frontier only
// moves between versions, when the scope is quiescent, and every scheduled
// time has Outer at or above the version being drained.
func (kt *keyTimes) advance(outer uint32) {
	if kt.adv >= outer+1 {
		return
	}
	kt.adv = outer + 1
	clamped := false
	for i := range kt.times {
		if kt.times[i].Outer < outer {
			kt.times[i].Outer = outer
			clamped = true
		}
	}
	if !clamped {
		return
	}
	out := kt.times[:0]
	n := 0
next:
	for _, t := range kt.times[0:] {
		for i := 0; i < n; i++ {
			if out[i] == t {
				continue next
			}
		}
		out = out[:n+1]
		out[n] = t
		n++
	}
	kt.times = out[:n]
}

// reduceShard is one worker's share of a reduce's state: columnar input and
// output arrangements (peers: one key hash serves both) plus the per-key
// time sets and the dirty schedule.
type reduceShard[K comparable, V comparable, O comparable] struct {
	ins   *arrange.Trace[K, V]
	outs  *arrange.Trace[K, O]
	keys  map[K]*keyTimes
	dirty map[timestamp.Time]map[K]struct{}
	spill map[V]Diff      // scratch: a hub key's accumulation, emptied after each use
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
	f   func(K, []VD[V]) []O
	nm  string

	p  *pendings[KV[K, V]]
	st []*reduceShard[K, V, O]
}

// Reduce applies f to the consolidated multiset of values of each key. f
// returns the output records for the key, each with multiplicity one; an
// empty return means the key has no output. f must be deterministic and must
// not retain vals. Reduce is the engine's equivalent of DD's reduce/group and
// subsumes min, max, sum, count, distinct and threshold.
func Reduce[K comparable, V comparable, O comparable](
	in *Collection[KV[K, V]], name string, f func(k K, vals []VD[V]) []O,
) *Collection[KV[K, O]] {
	s := in.s
	n := &reduceNode[K, V, O]{
		s:   s,
		out: newCollection[KV[K, O]](s),
		f:   f,
		nm:  name,
		p:   newPendings[KV[K, V]](s),
		st:  make([]*reduceShard[K, V, O], s.workers),
	}
	for w := 0; w < s.workers; w++ {
		ins := arrange.NewTrace[K, V]()
		n.st[w] = &reduceShard[K, V, O]{
			ins:   ins,
			outs:  arrange.NewPeer[K, O](ins),
			keys:  make(map[K]*keyTimes),
			dirty: make(map[timestamp.Time]map[K]struct{}),
			spill: make(map[V]Diff),
		}
		s.recycles(func() { n.st[w].ob = batch[KV[K, O]]{} })
	}
	in.subscribe(keyedSubscriber(s, n.p))
	s.addNode(n)
	return n.out
}

// ReduceMin keeps, per key, the minimum value present with positive
// multiplicity. The workhorse of label-propagation algorithms (WCC, BFS,
// shortest paths): the paper's UnionMin operator.
func ReduceMin[K comparable, V cmp.Ordered](in *Collection[KV[K, V]]) *Collection[KV[K, V]] {
	return Reduce(in, "min", func(_ K, vals []VD[V]) []V {
		var best V
		found := false
		for _, vd := range vals {
			if vd.D <= 0 {
				continue
			}
			if !found || vd.V < best {
				best, found = vd.V, true
			}
		}
		if !found {
			return nil
		}
		return []V{best}
	})
}

// ReduceMax keeps, per key, the maximum value present with positive
// multiplicity (used by the SCC coloring algorithm).
func ReduceMax[K comparable, V cmp.Ordered](in *Collection[KV[K, V]]) *Collection[KV[K, V]] {
	return Reduce(in, "max", func(_ K, vals []VD[V]) []V {
		var best V
		found := false
		for _, vd := range vals {
			if vd.D <= 0 {
				continue
			}
			if !found || vd.V > best {
				best, found = vd.V, true
			}
		}
		if !found {
			return nil
		}
		return []V{best}
	})
}

// ReduceSum emits, per key, the diff-weighted sum of the values (used by
// PageRank to accumulate rank contributions).
func ReduceSum[K comparable](in *Collection[KV[K, int64]]) *Collection[KV[K, int64]] {
	return Reduce(in, "sum", func(_ K, vals []VD[int64]) []int64 {
		var sum int64
		for _, vd := range vals {
			sum += vd.V * vd.D
		}
		return []int64{sum}
	})
}

// ReduceCount emits, per key, the total multiplicity of its values (e.g.
// vertex out-degrees from an edge stream keyed by source).
func ReduceCount[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, int64]] {
	return Reduce(in, "count", func(_ K, vals []VD[V]) []int64 {
		var c int64
		for _, vd := range vals {
			c += vd.D
		}
		if c == 0 {
			return nil
		}
		return []int64{c}
	})
}

// Distinct reduces a stream to multiplicity one per record present with
// positive multiplicity.
func Distinct[R comparable](in *Collection[R]) *Collection[R] {
	keyed := Map(in, func(r R) KV[R, struct{}] { return KV[R, struct{}]{r, struct{}{}} })
	reduced := Reduce(keyed, "distinct", func(_ R, vals []VD[struct{}]) []struct{} {
		var c Diff
		for _, vd := range vals {
			c += vd.D
		}
		if c > 0 {
			return []struct{}{{}}
		}
		return nil
	})
	return Map(reduced, func(kv KV[R, struct{}]) R { return kv.K })
}

// DistinctKeys reduces a keyed stream to one (key, struct{}{}) record per key
// present, the shape Semijoin expects for its filter side.
func DistinctKeys[K comparable, V comparable](in *Collection[KV[K, V]]) *Collection[KV[K, struct{}]] {
	return Reduce(in, "distinct-keys", func(_ K, vals []VD[V]) []struct{} {
		var c Diff
		for _, vd := range vals {
			c += vd.D
		}
		if c > 0 {
			return []struct{}{{}}
		}
		return nil
	})
}

func (n *reduceNode[K, V, O]) name() string { return "reduce:" + n.nm }

func (n *reduceNode[K, V, O]) run(w int, t timestamp.Time) {
	sh := n.st[w]
	b := n.p.take(w, t)
	work := len(b.recs)

	outer, compacting := n.s.compactionOuter()
	if compacting && work > 0 {
		// The first call after a frontier move folds each trace into a
		// recycled column set, one allocation-free pass; the rest are O(1).
		sh.ins.Advance(outer)
		sh.outs.Advance(outer)
	}

	// Ingest new input deltas and schedule the join closure of t with each
	// touched key's known times.
	for i, kv := range b.recs {
		k := kv.K
		kt := sh.keys[k]
		if kt == nil {
			kt = &keyTimes{}
			sh.keys[k] = kt
		}
		if compacting {
			kt.advance(outer)
		}
		sh.ins.Append(k, kv.V, t, b.diffs[i])
		if kt.hasTime(t) {
			// Time already known; it is either this run (scheduled below) or
			// already scheduled.
			sh.mark(t, k)
			continue
		}
		// Compute the closure of {t} ∪ kt.times under Join.
		frontier := []timestamp.Time{t}
		for len(frontier) > 0 {
			nt := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if kt.hasTime(nt) {
				continue
			}
			for _, s := range kt.times {
				j := nt.Join(s)
				if j != nt && j != s && !kt.hasTime(j) {
					frontier = append(frontier, j)
				}
			}
			kt.times = append(kt.times, nt)
			sh.mark(nt, k)
		}
	}

	// Re-evaluate every key dirty at exactly t.
	dk := sh.dirty[t]
	if dk == nil {
		return
	}
	delete(sh.dirty, t)
	ob := sh.ob.reset(t, 0)
	var vals []VD[V]
	var delta []VD[O]
	for k := range dk {
		// Accumulate input at t from the arrangement. Small histories merge
		// by linear scan; large ones (hub vertices) spill to the shard's map,
		// which is empty between keys and non-empty once a key has spilled.
		vals = vals[:0]
		hk, spill := sh.ins.Hash(k), sh.spill
		work += sh.ins.KeyHashed(hk, k, func(v V, et timestamp.Time, ed int64) {
			if !et.Leq(t) {
				return
			}
			if len(spill) > 0 {
				spill[v] += ed
				return
			}
			for i := range vals {
				if vals[i].V == v {
					vals[i].D += ed
					return
				}
			}
			if len(vals) >= 32 {
				for _, vd := range vals {
					spill[vd.V] += vd.D
				}
				spill[v] += ed
				return
			}
			vals = append(vals, VD[V]{v, ed})
		})
		if len(spill) > 0 {
			vals = vals[:0]
			for v, d := range spill {
				if d != 0 {
					vals = append(vals, VD[V]{v, d})
				}
			}
			clear(spill)
		} else {
			m := 0
			for _, vd := range vals {
				if vd.D != 0 {
					vals[m] = vd
					m++
				}
			}
			vals = vals[:m]
		}
		// Desired output minus accumulated emitted output; output sets are
		// tiny (usually one record), so a linear merge suffices.
		delta = delta[:0]
		if len(vals) > 0 {
			for _, o := range n.f(k, vals) {
				mergeVD(&delta, o, 1)
			}
		}
		sh.outs.KeyHashed(hk, k, func(v O, et timestamp.Time, ed int64) {
			if et.Leq(t) {
				mergeVD(&delta, v, -ed)
			}
		})
		for _, od := range delta {
			if od.D != 0 {
				sh.outs.AppendHashed(hk, k, od.V, t, od.D)
				ob.add(KV[K, O]{k, od.V}, od.D)
			}
		}
	}
	n.s.addWork(w, work)
	n.out.emit(w, ob)
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

func (sh *reduceShard[K, V, O]) mark(t timestamp.Time, k K) {
	m := sh.dirty[t]
	if m == nil {
		m = make(map[K]struct{})
		sh.dirty[t] = m
	}
	m[k] = struct{}{}
}

// reset drops every shard's arrangements by releasing their batch stacks by
// reference, and swaps the small scheduling maps for fresh ones — O(1) per
// shard regardless of how much state the previous run accumulated, with the
// old state left to the GC.
func (n *reduceNode[K, V, O]) reset() {
	n.p.reset()
	for _, sh := range n.st {
		sh.ins.Reset()
		sh.outs.Reset()
		sh.keys = make(map[K]*keyTimes)
		sh.dirty = make(map[timestamp.Time]map[K]struct{})
	}
}

func (n *reduceNode[K, V, O]) hasPending(w int, t timestamp.Time) bool {
	if n.p.has(w, t) {
		return true
	}
	_, ok := n.st[w].dirty[t]
	return ok
}

func (n *reduceNode[K, V, O]) minPending(w int) (timestamp.Time, bool) {
	best, found := n.p.min(w)
	for t := range n.st[w].dirty {
		if !found || t.LexLess(best) {
			best, found = t, true
		}
	}
	return best, found
}
