package dataflow

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sync"
	"testing"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// This file keeps the reduce as it was before dirty keys became sorted
// columns and evaluation a cursor walk: per-key heap objects, a map of dirty
// key sets per time and a lookup per key per trace. It is the oracle
// TestReduceMatchesOracle holds the operator to, output batch by output batch
// and work unit by work unit.

// refKeyTimes is the per-key scheduling metadata of a reduce: the set of
// distinct times at which the key has been (or is scheduled to be)
// evaluated. The bulky input/output histories live in the shard's columnar
// arrangements; only this small set stays per-key.
type refKeyTimes struct {
	times []timestamp.Time
	adv   uint32 // 1 + the outer coordinate the set was last advanced to
}

func (kt *refKeyTimes) hasTime(t timestamp.Time) bool {
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
func (kt *refKeyTimes) advance(outer uint32) {
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

// refReduceShard is one worker's share of a reduce's state: input and
// output arrangements plus the per-key time sets and the dirty schedule.
type refReduceShard[K comparable, V comparable, O comparable] struct {
	ins   *arrange.Trace[K, V]
	outs  *arrange.Trace[K, O]
	keys  map[K]*refKeyTimes
	dirty map[timestamp.Time]map[K]struct{}
	spill map[V]Diff      // scratch: a hub key's accumulation, emptied after each use
	ob    batch[KV[K, O]] // output scratch, lent to the subscribers at the end of each run
}

// refReduceNode groups a keyed stream by key and applies a per-key multiset
// function. For each key with an input delta at time t, the node schedules
// re-evaluation at t and at the lattice-join closure of t with the key's
// existing times — the essential mechanism that lets differential computation
// combine changes arriving along the version axis with history recorded along
// the iteration axis. At each scheduled time it emits
// f(accumulated input ≤ t) − accumulated output ≤ t.
type refReduceNode[K comparable, V comparable, O comparable] struct {
	s   *Scope
	out *Collection[KV[K, O]]
	f   func(K, []VD[V]) []O
	nm  string

	p  *pendings[KV[K, V]]
	st []*refReduceShard[K, V, O]
}

// Reduce applies f to the consolidated multiset of values of each key. f
// returns the output records for the key, each with multiplicity one; an
// empty return means the key has no output. f must be deterministic and must
// not retain vals. Reduce is the engine's equivalent of DD's reduce/group and
// subsumes min, max, sum, count, distinct and threshold.
func refReduce[K comparable, V comparable, O comparable](
	in *Collection[KV[K, V]], name string, f func(k K, vals []VD[V]) []O,
) *Collection[KV[K, O]] {
	s := in.s
	n := &refReduceNode[K, V, O]{
		s:   s,
		out: newCollection[KV[K, O]](s),
		f:   f,
		nm:  name,
		p:   newPendings[KV[K, V]](s),
		st:  make([]*refReduceShard[K, V, O], s.workers),
	}
	for w := 0; w < s.workers; w++ {
		n.st[w] = &refReduceShard[K, V, O]{
			ins:   arrange.NewTrace[K, V](),
			outs:  arrange.NewTrace[K, O](),
			keys:  make(map[K]*refKeyTimes),
			dirty: make(map[timestamp.Time]map[K]struct{}),
			spill: make(map[V]Diff),
		}
		s.recycles(func() { n.st[w].ob = batch[KV[K, O]]{} })
	}
	in.subscribe(keyedSubscriber(s, n.p))
	s.addNode(n)
	return n.out
}

func (n *refReduceNode[K, V, O]) name() string { return "reduce:" + n.nm }

func (n *refReduceNode[K, V, O]) run(w int, t timestamp.Time) {
	sh := n.st[w]
	b := n.p.take(w, t)
	work := len(b.recs)

	outer, compacting := n.s.compactionOuter()
	if compacting && work > 0 {
		// Each trace records the frontier; a key's entries are clamped the
		// next time the key is touched.
		sh.ins.Advance(outer)
		sh.outs.Advance(outer)
	}

	// Ingest new input deltas and schedule the join closure of t with each
	// touched key's known times.
	for i, kv := range b.recs {
		k := kv.K
		kt := sh.keys[k]
		if kt == nil {
			kt = &refKeyTimes{}
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
		spill := sh.spill
		work += sh.ins.Key(k, func(v V, et timestamp.Time, ed int64) {
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
		sh.outs.Key(k, func(v O, et timestamp.Time, ed int64) {
			if et.Leq(t) {
				mergeVD(&delta, v, -ed)
			}
		})
		for _, od := range delta {
			if od.D != 0 {
				sh.outs.Append(k, od.V, t, od.D)
				ob.add(KV[K, O]{k, od.V}, od.D)
			}
		}
	}
	n.s.addWork(w, work)
	n.out.emit(w, ob)
}

func (sh *refReduceShard[K, V, O]) mark(t timestamp.Time, k K) {
	m := sh.dirty[t]
	if m == nil {
		m = make(map[K]struct{})
		sh.dirty[t] = m
	}
	m[k] = struct{}{}
}

// reset swaps every shard's arrangements and scheduling maps for fresh
// ones, the old ones left to the GC.
func (n *refReduceNode[K, V, O]) reset() {
	n.p.reset()
	for _, sh := range n.st {
		sh.ins, sh.outs = arrange.NewTrace[K, V](), arrange.NewTrace[K, O]()
		sh.keys = make(map[K]*refKeyTimes)
		sh.dirty = make(map[timestamp.Time]map[K]struct{})
	}
}

func (n *refReduceNode[K, V, O]) hasPending(w int, t timestamp.Time) bool {
	if n.p.has(w, t) {
		return true
	}
	_, ok := n.st[w].dirty[t]
	return ok
}

func (n *refReduceNode[K, V, O]) minPending(w int) (timestamp.Time, bool) {
	best, found := n.p.min(w)
	for t := range n.st[w].dirty {
		if !found || t.LexLess(best) {
			best, found = t, true
		}
	}
	return best, found
}

// refReducers are the pre-emit forms of the named reducers, each returning a
// fresh output slice, as the oracle ran them.
var refReducers = map[string]func(k int, vals []VD[int]) []int64{
	"min": func(_ int, vals []VD[int]) []int64 {
		best, found := 0, false
		for _, vd := range vals {
			if vd.D > 0 && (!found || vd.V < best) {
				best, found = vd.V, true
			}
		}
		if !found {
			return nil
		}
		return []int64{int64(best)}
	},
	"max": func(_ int, vals []VD[int]) []int64 {
		best, found := 0, false
		for _, vd := range vals {
			if vd.D > 0 && (!found || vd.V > best) {
				best, found = vd.V, true
			}
		}
		if !found {
			return nil
		}
		return []int64{int64(best)}
	},
	"sum": func(_ int, vals []VD[int]) []int64 {
		var sum int64
		for _, vd := range vals {
			sum += int64(vd.V) * vd.D
		}
		return []int64{sum}
	},
	"count": func(_ int, vals []VD[int]) []int64 {
		var c int64
		for _, vd := range vals {
			c += vd.D
		}
		if c == 0 {
			return nil
		}
		return []int64{c}
	},
	"distinct-keys": func(_ int, vals []VD[int]) []int64 {
		var c int64
		for _, vd := range vals {
			c += vd.D
		}
		if c > 0 {
			return []int64{1}
		}
		return nil
	},
}

// reduceUnderTest builds the named reducer over in, as the operator or as
// the oracle, with outputs widened to int64.
func reduceUnderTest(in *Collection[KV[int, int]], name string, oracle bool) *Collection[KV[int, int64]] {
	if oracle {
		return refReduce(in, name, refReducers[name])
	}
	widen := func(kv KV[int, int]) KV[int, int64] { return KV[int, int64]{kv.K, int64(kv.V)} }
	switch name {
	case "min":
		return Map(ReduceMin(in), widen)
	case "max":
		return Map(ReduceMax(in), widen)
	case "sum":
		return ReduceSum(Map(in, widen))
	case "count":
		return ReduceCount(in)
	default:
		return Map(distinctKeys(in), func(kv KV[int, struct{}]) KV[int, int64] { return KV[int, int64]{kv.K, 1} })
	}
}

// outputLog records a collection's deltas, consolidated per time.
type outputLog struct {
	mu    sync.Mutex
	times map[timestamp.Time]map[KV[int, int64]]Diff
}

func logOutputs(c *Collection[KV[int, int64]]) *outputLog {
	l := &outputLog{times: map[timestamp.Time]map[KV[int, int64]]Diff{}}
	c.subscribe(func(_ int, b *batch[KV[int, int64]]) {
		l.mu.Lock()
		defer l.mu.Unlock()
		m := l.times[b.t]
		if m == nil {
			m = map[KV[int, int64]]Diff{}
			l.times[b.t] = m
		}
		for i, r := range b.recs {
			if m[r] += b.diffs[i]; m[r] == 0 {
				delete(m, r)
			}
		}
	})
	return l
}

// diffLogs reports the first time at which two logs' consolidated output
// batches differ.
func diffLogs(got, want *outputLog) error {
	for _, l := range []*outputLog{got, want} {
		for t, m := range l.times {
			if len(m) == 0 {
				delete(l.times, t)
			}
		}
	}
	for t, w := range want.times {
		if g := got.times[t]; !equalDiffMaps(g, w) {
			return fmt.Errorf("at %v: output %v, oracle %v", t, g, w)
		}
	}
	for t, g := range got.times {
		if _, ok := want.times[t]; !ok {
			return fmt.Errorf("at %v: output %v, oracle nothing", t, g)
		}
	}
	return nil
}

// outsLive is the number of entries the reduce's output histories hold.
func (n *reduceNode[K, V, O]) outsLive() (live int) {
	for _, sh := range n.st {
		live += sh.outs.Live()
	}
	return live
}

// outsLive is the number of entries the oracle's output traces hold.
func (n *refReduceNode[K, V, O]) outsLive() (live int) {
	for _, sh := range n.st {
		live += sh.outs.Len()
	}
	return live
}

// outsLive sums outsLive over a scope's reduces.
func outsLive(s *Scope) (live int) {
	for _, n := range s.nodes {
		if r, ok := n.(interface{ outsLive() int }); ok {
			live += r.outsLive()
		}
	}
	return live
}

// TestReduceMatchesOracle drives the reduce and the oracle it replaced
// through the same seeded keyed streams — hub keys with far more than 32
// distinct values, retractions, 24 versions with and without compaction, and
// the reduce inside a label-propagation Iterate — at 1 and 3 workers, and
// holds every time's consolidated output batch to the oracle's. For min and
// max, wherever the schedule is deterministic (one worker, or a reduce fed
// only by the input), the work counts must match, and the output histories
// must end as compacted as the oracle's, which clamps a key's the next time
// it is read or appended to. The linear reducers (sum, count, distinct-keys)
// may do less, never more: the oracle visits a key's message rows, and they
// visit its folded (time, n, Σ) rows, one per time; and their output
// histories may end more compacted, never less: a key whose batch folds to
// (0, 0) is clamped, where the oracle's consolidated batch drops the key
// only if its records cancel value by value.
func TestReduceMatchesOracle(t *testing.T) {
	const keys, vals, versions = 40, 90, 24
	type variant struct {
		name             string
		iterate, compact bool
	}
	var variants []variant
	for name := range refReducers {
		for _, compact := range []bool{true, false} {
			variants = append(variants, variant{name, false, compact})
			if name == "min" || name == "max" {
				variants = append(variants, variant{name, true, compact})
			}
		}
	}
	for _, v := range variants {
		for _, workers := range []int{1, 3} {
			for seed := int64(0); seed < 3; seed++ {
				build := func(oracle bool, shared *Scope) (*Scope, *Input[KV[int, int]], *outputLog) {
					s := NewScope(workers)
					if shared != nil {
						s.seed = shared.seed // one partition of the keys for both
					}
					in, col := NewInput[KV[int, int]](s)
					if !v.iterate {
						return s, in, logOutputs(reduceUnderTest(col, v.name, oracle))
					}
					// Keys are vertices, values their neighbours: labels spread
					// along the edges, the reduce inside the loop keeps one per
					// vertex.
					seeds := Map(col, func(kv KV[int, int]) KV[int, int64] { return KV[int, int64]{kv.K, int64(kv.K)} })
					var inner *Collection[KV[int, int64]]
					Iterate(seeds, func(x *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
						msgs := JoinMap(x, col, func(_ int, lab int64, dst int) KV[int, int] { return KV[int, int]{dst, int(lab)} })
						self := Map(seeds, func(kv KV[int, int64]) KV[int, int] { return KV[int, int]{kv.K, int(kv.V)} })
						inner = reduceUnderTest(Concat(msgs, self), v.name, oracle)
						return inner
					})
					return s, in, logOutputs(inner)
				}
				s, in, got := build(false, nil)
				rs, rin, want := build(true, s)
				r := rand.New(rand.NewSource(seed))
				cur := map[KV[int, int]]Diff{}
				for ver := uint32(0); ver < versions; ver++ {
					var ups []Update[KV[int, int]]
					for i := 0; i < 60; i++ {
						kv := KV[int, int]{r.Intn(keys), r.Intn(vals)}
						if r.Intn(3) == 0 {
							kv.K = r.Intn(2) // a hub key
						}
						d := Diff(r.Intn(3) - 1)
						if r.Intn(4) == 0 && len(ups) > 0 { // retract an update already sent
							kv, d = ups[r.Intn(len(ups))].Rec, -1
						}
						if cur[kv]+d < 0 || d == 0 {
							continue
						}
						cur[kv] += d
						ups = append(ups, Update[KV[int, int]]{kv, d})
					}
					in.SendAt(ver, ups)
					rin.SendAt(ver, ups)
					s.Drain()
					rs.Drain()
					if v.compact {
						s.Compact(ver)
						rs.Compact(ver)
					}
				}
				what := fmt.Sprintf("%s iterate=%v compact=%v workers=%d seed=%d", v.name, v.iterate, v.compact, workers, seed)
				if err := diffLogs(got, want); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				g, w := sum(s.WorkCounts()), sum(rs.WorkCounts())
				gl, wl := outsLive(s), outsLive(rs)
				switch linear := v.name != "min" && v.name != "max"; {
				case linear && g > w:
					t.Fatalf("%s: work %d, more than the oracle's %d", what, g, w)
				case linear && gl > wl:
					t.Fatalf("%s: output histories hold %d entries, more than the oracle's %d", what, gl, wl)
				case !linear && (workers == 1 || !v.iterate) && g != w:
					t.Fatalf("%s: work %d, oracle %d", what, g, w)
				case !linear && (workers == 1 || !v.iterate) && gl != wl:
					t.Fatalf("%s: output histories hold %d entries, oracle %d", what, gl, wl)
				}
			}
		}
	}
}

// TestLinearFoldSlotsNoCancelledKey sends a linear reduce, in version 1,
// records of a key never seen before that cancel as a fold but not value by
// value: the key must get no slot, for it has no store to clamp.
func TestLinearFoldSlotsNoCancelledKey(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[KV[int, int]](s)
	ReduceCount(col)
	in.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 1}, 1}})
	s.Drain()
	s.Compact(0)
	in.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{2, 1}, 1}, {KV[int, int]{2, 2}, -1}})
	s.Drain()
	for _, n := range s.nodes {
		if r, ok := n.(*reduceNode[int, int, int64]); ok {
			if _, ok := r.st[0].keys.Find(maphash.Comparable(r.st[0].seed, 2), 2); ok {
				t.Fatal("a key whose records cancel as a fold got a slot")
			}
			return
		}
	}
	t.Fatal("no reduce node")
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}
