package dataflow

import (
	"fmt"
	"math/rand"
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

// TestWorkerCountInvariance checks that results are identical for any worker
// count on a join+reduce+iterate pipeline.
func TestWorkerCountInvariance(t *testing.T) {
	build := func(workers int) (*Input[edge], *Capture[KV[uint32, uint32]], *Scope) {
		s := NewScope(workers)
		ei, ecol := NewInput[edge](s)
		keyed := Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.dst} })
		seeds := Distinct(Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.src} }))
		labels := Iterate(seeds, func(x *Collection[KV[uint32, uint32]]) *Collection[KV[uint32, uint32]] {
			msgs := JoinMap(x, keyed, func(_ uint32, lab uint32, dst uint32) KV[uint32, uint32] {
				return KV[uint32, uint32]{dst, lab}
			})
			return ReduceMin(Concat(msgs, seeds))
		})
		return ei, NewCapture(labels), s
	}

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

	var reference map[KV[uint32, uint32]]Diff
	for _, workers := range []int{1, 2, 3} {
		in, c, s := build(workers)
		for v, ups := range versions {
			in.SendAt(uint32(v), ups)
			s.Drain()
			s.Compact(uint32(v))
		}
		got := c.Result()
		if reference == nil {
			reference = got
			continue
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

func TestSemijoinAndDistinctKeys(t *testing.T) {
	s := NewScope(1)
	li, l := NewInput[KV[int, string]](s)
	ri, rcol := NewInput[KV[int, int]](s)
	filtered := Semijoin(l, DistinctKeys(rcol))
	c := NewCapture(filtered)

	li.SendAt(0, []Update[KV[int, string]]{{KV[int, string]{1, "a"}, 1}, {KV[int, string]{2, "b"}, 1}})
	ri.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 10}, 1}, {KV[int, int]{1, 20}, 1}})
	s.Drain()
	got := c.Result()
	if len(got) != 1 || got[KV[int, string]{1, "a"}] != 1 {
		t.Fatalf("got %v", got)
	}
	// Removing one of key 1's two right records keeps the semijoin output;
	// removing both retracts it.
	ri.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{1, 10}, -1}})
	s.Drain()
	if got := c.Result(); got[KV[int, string]{1, "a"}] != 1 {
		t.Fatalf("v1: got %v", got)
	}
	ri.SendAt(2, []Update[KV[int, int]]{{KV[int, int]{1, 20}, -1}})
	s.Drain()
	if got := c.Result(); len(got) != 0 {
		t.Fatalf("v2: got %v", got)
	}
}

func TestAntijoin(t *testing.T) {
	s := NewScope(1)
	li, l := NewInput[KV[int, string]](s)
	ri, r := NewInput[KV[int, int]](s)
	kept := Antijoin(l, DistinctKeys(r))
	c := NewCapture(kept)

	li.SendAt(0, []Update[KV[int, string]]{{KV[int, string]{1, "a"}, 1}, {KV[int, string]{2, "b"}, 1}})
	ri.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 10}, 1}})
	s.Drain()
	if got := c.Result(); len(got) != 1 || got[KV[int, string]{2, "b"}] != 1 {
		t.Fatalf("v0: %v", got)
	}
	// Key 1 leaves the filter set: its record reappears.
	ri.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{1, 10}, -1}})
	s.Drain()
	if got := c.Result(); len(got) != 2 {
		t.Fatalf("v1: %v", got)
	}
	// Key 2 enters the filter set: its record disappears.
	ri.SendAt(2, []Update[KV[int, int]]{{KV[int, int]{2, 5}, 1}})
	s.Drain()
	if got := c.Result(); len(got) != 1 || got[KV[int, string]{1, "a"}] != 1 {
		t.Fatalf("v2: %v", got)
	}
}

func TestConcatAllAndInspect(t *testing.T) {
	s := NewScope(1)
	a, acol := NewInput[int](s)
	b, bcol := NewInput[int](s)
	cIn, ccol := NewInput[int](s)
	seen := 0
	merged := Inspect(ConcatAll(acol, bcol, ccol), func(Delta[int]) { seen++ })
	cap1 := NewCapture(merged)
	a.SendOne(0, 1, 1)
	b.SendOne(0, 2, 1)
	cIn.SendOne(0, 3, 1)
	s.Drain()
	if got := cap1.Result(); len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	if seen != 3 {
		t.Fatalf("inspect saw %d deltas", seen)
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
// traces: the reference representation TestArrangedTraceMatchesMapTrace
// checks arrange.Trace against, kept here as that test's oracle.
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

const oracleKeySpace = 6 // keys used by the arranged-trace property test

// compareArranged checks that tr holds exactly the oracle's multisets, key by
// key, after clamping both sides to outer. Also cross-checks Trace.Len
// against the tuples Key actually yields.
func compareArranged(tr *arrange.Trace[int, int], o traceOracle, outer uint32) error {
	visited := 0
	for k := 0; k < oracleKeySpace; k++ {
		got := map[vtdKey[int]]Diff{}
		visited += tr.Key(k, func(v int, ts timestamp.Time, d int64) {
			if ts.Outer < outer {
				ts.Outer = outer
			}
			got[vtdKey[int]{v, ts}] += d
		})
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

// TestArrangedTraceMatchesMapTrace drives an arrange.Trace and the legacy
// map-of-vtd trace representation through identical random streams of
// appends, frontier advances, snapshots, and resets, asserting the
// accumulated per-key multisets stay identical throughout. The vtd machinery
// (consolidateVTD/advanceVTD) is the oracle: it is the representation the
// engine used before arrangements, so agreement here is the refactor's
// equivalence proof. Snapshots are checked at the end, after the original
// trace has kept sealing and merging, pinning the copy-on-write isolation.
func TestArrangedTraceMatchesMapTrace(t *testing.T) {
	type snapshot struct {
		tr     *arrange.Trace[int, int]
		oracle traceOracle
		outer  uint32
		step   int
	}
	run := func(seed int64) error {
		r := rand.New(rand.NewSource(seed))
		tr := arrange.NewTrace[int, int]()
		oracle := traceOracle{}
		outer := uint32(0)
		var snaps []snapshot
		steps := 600 + r.Intn(500) // enough appends to force seals and merges
		for i := 0; i < steps; i++ {
			switch op := r.Intn(100); {
			case op < 84: // append, occasionally with a zero diff (must be a no-op)
				k, v := r.Intn(oracleKeySpace), r.Intn(5)
				ts := timestamp.Time{Outer: outer + uint32(r.Intn(3)), Inner: uint32(r.Intn(3))}
				d := int64(r.Intn(5) - 2)
				tr.Append(k, v, ts, d)
				if d != 0 {
					oracle[k] = append(oracle[k], vtd[int]{v, ts, d})
				}
			case op < 92: // advance the compaction frontier on both sides
				outer += uint32(r.Intn(2) + 1)
				tr.Advance(outer)
				for k, list := range oracle {
					list, _ = advanceVTD(list, outer)
					if len(list) == 0 {
						delete(oracle, k)
					} else {
						oracle[k] = list
					}
				}
			case op < 97: // snapshot now, verify after the original moves on
				snaps = append(snaps, snapshot{tr.Snapshot(), oracle.clone(), outer, i})
			default: // reset drops all state
				tr.Reset()
				oracle = traceOracle{}
				outer = 0
			}
			if i%53 == 0 {
				if err := compareArranged(tr, oracle, outer); err != nil {
					return fmt.Errorf("step %d: %w", i, err)
				}
			}
		}
		if err := compareArranged(tr, oracle, outer); err != nil {
			return fmt.Errorf("final: %w", err)
		}
		for _, s := range snaps {
			if err := compareArranged(s.tr, s.oracle, s.outer); err != nil {
				return fmt.Errorf("snapshot taken at step %d: %w", s.step, err)
			}
		}
		return nil
	}
	for seed := int64(0); seed < 25; seed++ {
		if err := run(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

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
