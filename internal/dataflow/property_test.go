package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// TestConsolidateVTDMatchesMap checks the reference trace's consolidation
// fast path against the map-based definition.
func TestConsolidateVTDMatchesMap(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 60
		list := make([]vtd[int], 0, n)
		for i := 0; i < n; i++ {
			list = append(list, vtd[int]{
				v: r.Intn(4),
				t: timestamp.Time{Outer: uint32(r.Intn(2)), Inner: uint32(r.Intn(3))},
				d: int64(r.Intn(3) - 1),
			})
		}
		want := make(map[vtdKey[int]]Diff)
		for _, e := range list {
			want[vtdKey[int]{e.v, e.t}] += e.d
		}
		got := consolidateVTD(append([]vtd[int](nil), list...))
		acc := make(map[vtdKey[int]]Diff)
		for _, e := range got {
			if e.d == 0 {
				return false
			}
			acc[vtdKey[int]{e.v, e.t}] += e.d
		}
		for k, d := range want {
			if d != acc[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// oracleGroupSum recomputes, per key, the diff-weighted sum of a multiset.
func oracleGroupSum(cur map[KV[int, int64]]int64) map[int]int64 {
	out := map[int]int64{}
	seen := map[int]bool{}
	for kv, mult := range cur {
		out[kv.K] += kv.V * mult
		seen[kv.K] = true
	}
	for k := range seen {
		if _, ok := out[k]; !ok {
			out[k] = 0
		}
	}
	return out
}

// TestReduceSumRandomSequences drives ReduceSum through random update
// sequences across versions and workers, checking cumulative results against
// a from-scratch oracle. This is the strongest single test of the reduce
// operator's join-closure machinery.
func TestReduceSumRandomSequences(t *testing.T) {
	run := func(seed int64, workers int) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewScope(workers)
		in, col := NewInput[KV[int, int64]](s)
		c := NewCapture(ReduceSum(col))
		cur := map[KV[int, int64]]int64{}
		for v := uint32(0); v < 6; v++ {
			var ups []Update[KV[int, int64]]
			for i := 0; i < 12; i++ {
				kv := KV[int, int64]{r.Intn(4), int64(r.Intn(5))}
				d := int64(r.Intn(3) - 1)
				if cur[kv]+d < 0 {
					d = -cur[kv] // keep multiplicities non-negative
				}
				if d == 0 {
					continue
				}
				cur[kv] += d
				if cur[kv] == 0 {
					delete(cur, kv)
				}
				ups = append(ups, Update[KV[int, int64]]{kv, d})
			}
			in.SendAt(v, ups)
			s.Drain()
			got := c.Result()
			want := oracleGroupSum(cur)
			keysWithRecords := map[int]bool{}
			for kv := range cur {
				keysWithRecords[kv.K] = true
			}
			for k, sum := range want {
				if !keysWithRecords[k] {
					continue
				}
				if got[KV[int, int64]{k, sum}] != 1 {
					return false
				}
			}
			// No spurious outputs.
			n := 0
			for _, d := range got {
				if d != 0 {
					n++
				}
			}
			if n != len(keysWithRecords) {
				return false
			}
			s.Compact(v)
		}
		return true
	}
	for seed := int64(0); seed < 25; seed++ {
		for _, workers := range []int{1, 2} {
			if !run(seed, workers) {
				t.Fatalf("seed %d workers %d", seed, workers)
			}
		}
	}
}

// TestWorkerCountInvariance checks that results and the total work are
// identical for any worker count, on a join+reduce+iterate pipeline and on
// PageRank's loop over JoinSum: a key's stored history, and so the work of
// reading it, depends only on the key's own updates, not on how the keys
// are spread over workers. JoinSum's x is broadcast to every worker, so this
// holds for it only because each x record is charged once, on the worker
// owning its vertex.
func TestWorkerCountInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var versions [][]Update[edge]
	cur := map[edge]bool{}
	for v := 0; v < 4; v++ {
		// Well over 32 rows a version, so every worker's batches take the
		// indexed consolidation path and cross-worker pushes carry many rows.
		var ups []Update[edge]
		for i := 0; i < 400; i++ {
			e := edge{uint32(r.Intn(150)), uint32(r.Intn(150))}
			if cur[e] {
				cur[e] = false
				ups = append(ups, Update[edge]{e, -1})
			} else {
				cur[e] = true
				ups = append(ups, Update[edge]{e, 1})
			}
		}
		versions = append(versions, ups)
	}

	t.Run("min", func(t *testing.T) {
		checkWorkerCountInvariance(t, versions, func(ecol *Collection[edge]) *Collection[KV[uint32, uint32]] {
			keyed := Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.dst} })
			seeds := Distinct(Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.src} }))
			return Iterate(seeds, func(x *Collection[KV[uint32, uint32]]) *Collection[KV[uint32, uint32]] {
				msgs := JoinMap(x, keyed, func(_ uint32, lab uint32, dst uint32) KV[uint32, uint32] {
					return KV[uint32, uint32]{dst, lab}
				})
				return ReduceMin(Concat(msgs, seeds))
			})
		})
	})
	t.Run("sum", func(t *testing.T) {
		checkWorkerCountInvariance(t, versions, func(ecol *Collection[edge]) *Collection[KV[uint32, int64]] {
			keyed := Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.dst} })
			degrees := CountTotal(keyed)
			verts := DistinctTotal(FlatMap(ecol, func(e edge, emit func(uint32)) { emit(e.src); emit(e.dst) }))
			base := Map(verts, func(v uint32) KV[uint32, int64] { return KV[uint32, int64]{v, 150} })
			initial := Map(verts, func(v uint32) KV[uint32, int64] { return KV[uint32, int64]{v, 1000} })
			return IterateN(initial, 5, func(x *Collection[KV[uint32, int64]]) *Collection[KV[uint32, int64]] {
				shares := JoinMapTotal(x, degrees, func(v uint32, rank, deg int64) KV[uint32, int64] {
					return KV[uint32, int64]{v, rank * 85 / 100 / deg}
				})
				return JoinSum(shares, keyed, base, func(dst uint32) uint32 { return dst })
			})
		})
	})
}

// checkWorkerCountInvariance runs build's program over versions at 1, 2 and
// 3 workers, compacting after each version, and requires the same result
// and the same total work at each.
func checkWorkerCountInvariance[R comparable](t *testing.T, versions [][]Update[edge], build func(*Collection[edge]) *Collection[R]) {
	var reference map[R]Diff
	var refWork int64
	for _, workers := range []int{1, 2, 3} {
		s := NewScope(workers)
		in, ecol := NewInput[edge](s)
		c := NewCapture(build(ecol))
		for v, ups := range versions {
			in.SendAt(uint32(v), ups)
			s.Drain()
			s.Compact(uint32(v))
		}
		got := c.Result()
		var work int64
		for _, w := range s.WorkCounts() {
			work += w
		}
		if reference == nil {
			reference, refWork = got, work
			continue
		}
		if work != refWork {
			t.Fatalf("workers=%d: total work %d, want %d as at 1 worker", workers, work, refWork)
		}
		if len(got) != len(reference) {
			t.Fatalf("workers=%d: %d results vs %d", workers, len(got), len(reference))
		}
		for k, d := range reference {
			if got[k] != d {
				t.Fatalf("workers=%d: %v = %d, want %d", workers, k, got[k], d)
			}
		}
	}
}

// TestDistinctKeys holds distinctKeys to one record per key present: a key
// with two records is reported once, and retracted only when both are gone.
func TestDistinctKeys(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[KV[int, int]](s)
	c := NewCapture(distinctKeys(col))
	one := KV[int, struct{}]{1, struct{}{}}

	in.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 10}, 1}, {KV[int, int]{1, 20}, 1}})
	s.Drain()
	if got := c.Result(); len(got) != 1 || got[one] != 1 {
		t.Fatalf("v0: got %v", got)
	}
	in.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{1, 10}, -1}})
	s.Drain()
	if got := c.Result(); len(got) != 1 || got[one] != 1 {
		t.Fatalf("v1: got %v", got)
	}
	in.SendAt(2, []Update[KV[int, int]]{{KV[int, int]{1, 20}, -1}})
	s.Drain()
	if got := c.Result(); len(got) != 0 {
		t.Fatalf("v2: got %v", got)
	}
}

// TestConcatThreeWay merges three inputs with one Concat: every record of
// each reaches the capture once.
func TestConcatThreeWay(t *testing.T) {
	s := NewScope(1)
	a, acol := NewInput[int](s)
	b, bcol := NewInput[int](s)
	cIn, ccol := NewInput[int](s)
	cap1 := NewCapture(Concat(acol, bcol, ccol))
	a.SendOne(0, 1, 1)
	b.SendOne(0, 2, 1)
	cIn.SendOne(0, 3, 1)
	cIn.SendOne(0, 1, 1)
	s.Drain()
	if got, want := cap1.Result(), map[int]Diff{1: 2, 2: 1, 3: 1}; !equalDiffMaps(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestPendingsBasics exercises the shard buffer directly.
func TestPendingsBasics(t *testing.T) {
	p := newPendings[int](NewScope(2))
	t0 := timestamp.Outer(0)
	t1 := timestamp.Time{Outer: 0, Inner: 3}
	p.push(0, &batch[int]{recs: []int{1, 1}, diffs: []Diff{1, 1}, t: t0})
	p.push(0, &batch[int]{recs: []int{2, 2}, diffs: []Diff{0, 0}, t: t1})
	p.push(0, &batch[int]{t: timestamp.Outer(7)})
	if !p.has(0, t0) || p.has(0, timestamp.Outer(7)) {
		t.Fatal("has")
	}
	if p.has(1, t0) {
		t.Fatal("wrong worker")
	}
	mt, ok := p.min(0)
	if !ok || mt != t0 {
		t.Fatalf("min %v %v", mt, ok)
	}
	b := p.take(0, t0)
	if len(b.recs) != 1 || b.recs[0] != 1 || b.diffs[0] != 2 || b.t != t0 {
		t.Fatalf("take %v", b)
	}
	if b := p.take(0, t1); len(b.recs) != 0 {
		t.Fatalf("zero diffs must be dropped at take: %v", b)
	}
	if _, ok := p.min(0); ok {
		t.Fatal("min after take")
	}
}

func TestIterateNZero(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[int](s)
	out := IterateN(col, 0, func(x *Collection[int]) *Collection[int] { return x })
	c := NewCapture(out)
	in.SendOne(0, 7, 1)
	s.Drain()
	if got := c.Result(); got[7] != 1 {
		t.Fatalf("got %v", got)
	}
}

// vtd is a value-time-diff triple, the element of the retired operator state
// traces: the reference representation FuzzTraceMatchesMap checks
// arrange.Trace against, kept here as that test's oracle.
type vtd[V comparable] struct {
	v V
	t timestamp.Time
	d Diff
}

type vtdKey[V comparable] struct {
	v V
	t timestamp.Time
}

// consolidateVTD merges trace entries with equal (value, time) and drops
// zeros, returning the compacted slice. Small traces (the common case for
// per-key histories) merge in place with a quadratic scan, avoiding map
// allocation on the hot path.
func consolidateVTD[V comparable](list []vtd[V]) []vtd[V] {
	if len(list) <= 1 {
		if len(list) == 1 && list[0].d == 0 {
			return list[:0]
		}
		return list
	}
	if len(list) <= 48 {
		out := list[:0]
		n := 0
	next:
		for _, e := range list[0:] {
			for i := 0; i < n; i++ {
				if out[i].v == e.v && out[i].t == e.t {
					out[i].d += e.d
					continue next
				}
			}
			out = out[:n+1]
			out[n] = e
			n++
		}
		// Drop zeroed entries.
		m := 0
		for i := 0; i < n; i++ {
			if out[i].d != 0 {
				out[m] = out[i]
				m++
			}
		}
		return out[:m]
	}
	acc := make(map[vtdKey[V]]Diff, len(list))
	for _, e := range list {
		acc[vtdKey[V]{e.v, e.t}] += e.d
	}
	out := list[:0]
	for k, d := range acc {
		if d != 0 {
			out = append(out, vtd[V]{k.v, k.t, d})
		}
	}
	return out
}

// advanceVTD clamps entry times with Outer < outer to the given outer
// coordinate and consolidates when anything was clamped. Sound once no
// future work can occur at any time with Outer ≤ outer: for any future time
// t, Leq and Join against the clamped time are unchanged. Returns the
// (possibly compacted) list and whether it changed.
func advanceVTD[V comparable](list []vtd[V], outer uint32) ([]vtd[V], bool) {
	clamped := false
	for i := range list {
		if list[i].t.Outer < outer {
			list[i].t.Outer = outer
			clamped = true
		}
	}
	if !clamped {
		return list, false
	}
	return consolidateVTD(list), true
}

// traceOracle is the pre-arrangement trace representation: per-key slices of
// (value, time, diff) entries, clamped eagerly by advanceVTD. It defines the
// semantics the columnar arrange.Trace must reproduce.
type traceOracle map[int][]vtd[int]

func (o traceOracle) clone() traceOracle {
	cp := make(traceOracle, len(o))
	for k, list := range o {
		cp[k] = append([]vtd[int](nil), list...)
	}
	return cp
}

// accumulated returns key k's multiset as a (value, time)->diff map with
// times clamped to outer — the view an operator sees when joining against
// times at or beyond the frontier. Zero-sum entries are dropped.
func (o traceOracle) accumulated(k int, outer uint32) map[vtdKey[int]]Diff {
	acc := map[vtdKey[int]]Diff{}
	for _, e := range o[k] {
		ts := e.t
		if ts.Outer < outer {
			ts.Outer = outer
		}
		acc[vtdKey[int]{e.v, ts}] += e.d
	}
	for kk, d := range acc {
		if d == 0 {
			delete(acc, kk)
		}
	}
	return acc
}

// compareArranged checks that tr holds exactly the oracle's multisets, key by
// key, after clamping both sides to outer, for keys [0, keys). When settled,
// the frontier has moved to outer since the keys were last touched, and each
// key's first visit must be exactly its consolidated multiset: every (value,
// time) once, times clamped, no zero diff. Also cross-checks Trace.Len
// against the tuples Key actually yields.
func compareArranged(tr *arrange.Trace[int, int], o traceOracle, keys int, outer uint32, settled bool) error {
	visited := 0
	for k := 0; k < keys; k++ {
		got := map[vtdKey[int]]Diff{}
		var dup error
		visited += tr.Key(k, func(v int, ts timestamp.Time, d int64) {
			if settled && dup == nil {
				if _, seen := got[vtdKey[int]{v, ts}]; seen || d == 0 || ts.Outer < outer {
					dup = fmt.Errorf("key %d: visits (%d, %v, %d) after an Advance to %d, not its consolidated multiset", k, v, ts, d, outer)
				}
			}
			if ts.Outer < outer {
				ts.Outer = outer
			}
			got[vtdKey[int]{v, ts}] += d
		})
		if dup != nil {
			return dup
		}
		for kk, d := range got {
			if d == 0 {
				delete(got, kk)
			}
		}
		want := o.accumulated(k, outer)
		if len(got) != len(want) {
			return fmt.Errorf("key %d: %d distinct (value, time) entries, want %d", k, len(got), len(want))
		}
		for kk, d := range want {
			if got[kk] != d {
				return fmt.Errorf("key %d, value %d at %v: diff %d, want %d", k, kk.v, kk.t, got[kk], d)
			}
		}
	}
	if visited != tr.Len() {
		return fmt.Errorf("Key visited %d tuples total, Len reports %d", visited, tr.Len())
	}
	return nil
}

// traceMatchesMap drives an arrange.Trace and the legacy map-of-vtd trace
// representation through identical random streams of appends (some with
// zero diffs), frontier advances, snapshots and fresh traces, asserting the
// accumulated per-key multisets stay identical throughout. The vtd machinery
// (consolidateVTD/advanceVTD) is the oracle: it is the representation the
// engine used before arrangements. After every Advance each key's first
// visit must be its consolidated multiset. Snapshots are checked at the end,
// after the original has moved on. keys sets the key space (a small one
// makes hub keys), skip the largest frontier step less one, and retract
// adds, once, a retraction of everything at the frontier, which must leave
// the trace empty.
func traceMatchesMap(t *testing.T, seed int64, keys, skip uint8, retract bool) {
	t.Helper()
	type snapshot struct {
		tr     *arrange.Trace[int, int]
		oracle traceOracle
		outer  uint32
		step   int
	}
	r := rand.New(rand.NewSource(seed))
	nkeys := max(int(keys), 1)
	tr := arrange.NewTrace[int, int]()
	oracle := traceOracle{}
	outer := uint32(0)
	advance := func(step int, by uint32) {
		outer += by
		tr.Advance(outer)
		for k, list := range oracle {
			list, _ = advanceVTD(list, outer)
			if len(list) == 0 {
				delete(oracle, k)
			} else {
				oracle[k] = list
			}
		}
		if err := compareArranged(tr, oracle, nkeys, outer, true); err != nil {
			t.Fatalf("step %d, after Advance(%d): %v", step, outer, err)
		}
	}
	var snaps []snapshot
	steps := 600 + r.Intn(500)
	for i := 0; i < steps; i++ {
		switch op := r.Intn(100); {
		case op < 84: // append, occasionally with a zero diff (must be a no-op)
			k, v := r.Intn(nkeys), r.Intn(5)
			ts := timestamp.Time{Outer: outer + uint32(r.Intn(3)), Inner: uint32(r.Intn(3))}
			d := int64(r.Intn(5) - 2)
			tr.Append(k, v, ts, d)
			if d != 0 {
				oracle[k] = append(oracle[k], vtd[int]{v, ts, d})
			}
		case op < 92: // advance the compaction frontier on both sides
			advance(i, 1+uint32(r.Intn(1+int(skip%3))))
		case op < 97: // snapshot now, verify after the original moves on
			snaps = append(snaps, snapshot{tr.Snapshot(), oracle.clone(), outer, i})
		default: // a fresh trace: all state dropped
			tr = arrange.NewTrace[int, int]()
			oracle = traceOracle{}
			outer = 0
		}
		if retract && i == steps/2 {
			// Once the history is clamped up to the frontier, every
			// tuple meets its negation.
			advance(i, 3)
			for k, list := range oracle {
				for _, e := range slices.Clone(list) {
					ts := timestamp.Time{Outer: outer, Inner: e.t.Inner}
					tr.Append(k, e.v, ts, -e.d)
					oracle[k] = append(oracle[k], vtd[int]{e.v, ts, -e.d})
				}
			}
			advance(i, 1)
			if tr.Len() != 0 {
				t.Fatalf("step %d: retracting everything left %d tuples", i, tr.Len())
			}
		}
		if i%53 == 0 {
			if err := compareArranged(tr, oracle, nkeys, outer, false); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := compareArranged(tr, oracle, nkeys, outer, false); err != nil {
		t.Fatalf("final: %v", err)
	}
	for _, s := range snaps {
		if err := compareArranged(s.tr, s.oracle, nkeys, s.outer, false); err != nil {
			t.Fatalf("snapshot taken at step %d: %v", s.step, err)
		}
	}
}

// TestArrangedTraceMatchesMapTrace holds the trace to the map oracle on 25
// seeded streams over 6 keys, advancing by 1 or 2.
func TestArrangedTraceMatchesMapTrace(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		traceMatchesMap(t, seed, oracleKeySpace, 1, false)
	}
}

// FuzzTraceMatchesMap is traceMatchesMap over fuzzed streams, seeded with
// TestArrangedTraceMatchesMapTrace's streams and with skipped versions on
// Advance, wide and narrow key spaces, total cancellation, and fresh traces.
func FuzzTraceMatchesMap(f *testing.F) {
	for seed := int64(0); seed < 25; seed++ {
		f.Add(seed, uint8(oracleKeySpace), uint8(1), false)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(3+seed*40), uint8(2), true)
	}
	f.Add(int64(7), uint8(1), uint8(2), true)
	f.Fuzz(traceMatchesMap)
}

const oracleKeySpace = 6 // keys of TestArrangedTraceMatchesMapTrace's streams

func TestNegativeAndZeroDiffHandling(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[KV[int, int]](s)
	c := NewCapture(ReduceMin(col))
	// A negative-only multiset yields no output.
	in.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 5}, 2}})
	s.Drain()
	in.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{1, 5}, -2}})
	s.Drain()
	if got := c.Result(); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}
