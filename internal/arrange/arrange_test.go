package arrange

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"graphsurge/internal/timestamp"
)

type acc struct {
	v int
	t timestamp.Time
}

// accumulate collects a trace's consolidated content for one key.
func accumulate(tr *Trace[int, int], k int) map[acc]int64 {
	out := make(map[acc]int64)
	tr.Key(k, func(v int, t timestamp.Time, d int64) {
		e := acc{v, t}
		out[e] += d
		if out[e] == 0 {
			delete(out, e)
		}
	})
	return out
}

func TestTraceAppendAndKey(t *testing.T) {
	tr := NewTrace[int, int]()
	t0 := timestamp.Time{Outer: 0, Inner: 0}
	t1 := timestamp.Time{Outer: 0, Inner: 1}
	tr.Append(1, 10, t0, 1)
	tr.Append(1, 10, t1, 2)
	tr.Append(2, 20, t0, 1)
	got := accumulate(tr, 1)
	want := map[acc]int64{{10, t0}: 1, {10, t1}: 2}
	if len(got) != len(want) {
		t.Fatalf("key 1: got %v want %v", got, want)
	}
	for e, d := range want {
		if got[e] != d {
			t.Fatalf("key 1 entry %v: got %d want %d", e, got[e], d)
		}
	}
	if n := tr.Key(3, func(int, timestamp.Time, int64) {}); n != 0 {
		t.Fatalf("absent key visited %d entries", n)
	}
}

// TestSealConsolidates checks that equal (key, value, time) tuples merge
// and cancelling diffs vanish when the stage seals into a batch.
func TestSealConsolidates(t *testing.T) {
	tr := NewTrace[int, int]()
	t0 := timestamp.Time{}
	for i := 0; i < stageThreshold/2; i++ {
		tr.Append(7, 70, t0, 1)
		tr.Append(7, 70, t0, -1)
	}
	if tr.Len() != 0 {
		t.Fatalf("cancelling diffs survived seal: Len=%d", tr.Len())
	}
	if tr.Batches() != 0 {
		t.Fatalf("empty batch kept on stack: %d", tr.Batches())
	}
}

// TestGeometricMerge checks the batch stack stays logarithmic in tuples.
func TestGeometricMerge(t *testing.T) {
	tr := NewTrace[int, int]()
	n := stageThreshold * 40
	for i := 0; i < n; i++ {
		tr.Append(i, i, timestamp.Time{Outer: uint32(i % 5)}, 1)
	}
	if tr.Len() != n {
		t.Fatalf("lost tuples: Len=%d want %d", tr.Len(), n)
	}
	if tr.Batches() > 8 {
		t.Fatalf("batch stack not geometric: %d batches for %d tuples", tr.Batches(), n)
	}
}

// TestClampOnMerge checks lazy compaction: after Advance(outer), merged
// batches clamp historical times to outer and consolidate what cancels.
func TestClampOnMerge(t *testing.T) {
	tr := NewTrace[int, int]()
	early := timestamp.Time{Outer: 0}
	late := timestamp.Time{Outer: 3}
	// +1 at version 0 and -1 at version 3 for the same (key, value): after
	// clamping both to outer=3 they cancel.
	tr.Append(1, 10, early, 1)
	tr.Append(1, 10, late, -1)
	tr.Advance(3)
	// Force sealing and merging by filling the stage repeatedly.
	for i := 0; i < stageThreshold*4; i++ {
		tr.Append(100+i, i, late, 1)
	}
	got := accumulate(tr, 1)
	if len(got) != 0 {
		t.Fatalf("clamped diffs did not cancel on merge: %v", got)
	}
	// Everything surviving must sit at Outer >= 3.
	for _, b := range tr.batches {
		for _, ts := range b.times {
			if ts.Outer < 3 {
				t.Fatalf("batch kept unclamped time %v", ts)
			}
		}
	}
}

// TestMergeEquivalence drives a trace with random appends, advances, and
// seals, checking the consolidated per-key content always matches a plain
// map oracle.
func TestMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tr := NewTrace[int, int]()
		oracle := make(map[int]map[acc]int64)
		frontier := uint32(0)
		clampOracle := func(outer uint32) {
			for _, m := range oracle {
				nm := make(map[acc]int64, len(m))
				for e, d := range m {
					if e.t.Outer < outer {
						e.t.Outer = outer
					}
					nm[e] += d
				}
				for e, d := range nm {
					if d == 0 {
						delete(nm, e)
					} else {
						nm[e] = d
					}
				}
				// Copy back without replacing the outer map binding.
				for e := range m {
					delete(m, e)
				}
				for e, d := range nm {
					m[e] = d
				}
			}
		}
		for step := 0; step < 3000; step++ {
			k := r.Intn(20)
			v := r.Intn(5)
			ts := timestamp.Time{Outer: frontier + uint32(r.Intn(3)), Inner: uint32(r.Intn(4))}
			d := int64(r.Intn(5) - 2)
			tr.Append(k, v, ts, d)
			if d != 0 {
				m := oracle[k]
				if m == nil {
					m = make(map[acc]int64)
					oracle[k] = m
				}
				e := acc{v, ts}
				m[e] += d
				if m[e] == 0 {
					delete(m, e)
				}
			}
			if step%500 == 499 {
				frontier += uint32(r.Intn(2))
				tr.Advance(frontier)
			}
		}
		// A trailing advance plus enough appends to force a full merge.
		clampOracle(frontier)
		for k := 0; k < 20; k++ {
			got := accumulate(tr, k)
			// The trace may hold times clamped or unclamped depending on
			// merge timing, so compare after clamping both sides.
			cg := make(map[acc]int64)
			for e, d := range got {
				if e.t.Outer < frontier {
					e.t.Outer = frontier
				}
				cg[e] += d
			}
			for e, d := range cg {
				if d == 0 {
					delete(cg, e)
				}
			}
			want := oracle[k]
			if len(cg) != len(want) {
				t.Fatalf("trial %d key %d: got %v want %v", trial, k, cg, want)
			}
			for e, d := range want {
				if cg[e] != d {
					t.Fatalf("trial %d key %d entry %v: got %d want %d", trial, k, e, cg[e], d)
				}
			}
		}
	}
}

// TestSnapshotIsolation checks copy-on-write sharing: appends, seals, and
// resets on the original never disturb a snapshot, and vice versa.
func TestSnapshotIsolation(t *testing.T) {
	tr := NewTrace[int, int]()
	t0 := timestamp.Time{}
	// Enough history for several sealed batches plus a partial stage.
	n := stageThreshold*3 + 17
	for i := 0; i < n; i++ {
		tr.Append(i%50, i, t0, 1)
	}
	snap := tr.Snapshot()
	if snap.Len() != tr.Len() {
		t.Fatalf("snapshot Len=%d want %d", snap.Len(), tr.Len())
	}
	before := make(map[int]map[acc]int64)
	for k := 0; k < 50; k++ {
		before[k] = accumulate(snap, k)
	}
	// Mutate the original heavily: appends that force merges, then a reset.
	for i := 0; i < stageThreshold*8; i++ {
		tr.Append(i%50, 1000+i, t0, 1)
	}
	tr.Advance(5)
	for i := 0; i < stageThreshold*2; i++ {
		tr.Append(i%50, 2000+i, t0, 1)
	}
	tr.Reset()
	for k := 0; k < 50; k++ {
		after := accumulate(snap, k)
		if len(after) != len(before[k]) {
			t.Fatalf("snapshot key %d changed under original mutation: %d vs %d entries", k, len(after), len(before[k]))
		}
		for e, d := range before[k] {
			if after[e] != d {
				t.Fatalf("snapshot key %d entry %v changed: %d vs %d", k, e, after[e], d)
			}
		}
	}
	// And the snapshot can diverge without touching the (reset) original.
	for i := 0; i < stageThreshold*2; i++ {
		snap.Append(i%50, 3000+i, t0, 1)
	}
	if tr.Len() != 0 {
		t.Fatalf("original trace grew from snapshot appends: Len=%d", tr.Len())
	}
}

func TestResetDropsByReference(t *testing.T) {
	tr := NewTrace[int, int]()
	for i := 0; i < stageThreshold*4; i++ {
		tr.Append(i, i, timestamp.Time{}, 1)
	}
	if tr.Batches() == 0 {
		t.Fatal("expected sealed batches before reset")
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Batches() != 0 {
		t.Fatalf("reset left state: Len=%d Batches=%d", tr.Len(), tr.Batches())
	}
	// Usable after reset.
	tr.Append(1, 1, timestamp.Time{}, 1)
	if tr.Len() != 1 {
		t.Fatalf("append after reset: Len=%d", tr.Len())
	}
}

func TestQueueOrderAndTake(t *testing.T) {
	var q Queue[string]
	ta := timestamp.Time{Outer: 1, Inner: 0}
	tb := timestamp.Time{Outer: 0, Inner: 2}
	tc := timestamp.Time{Outer: 0, Inner: 1}
	q.Push(ta, []string{"a"}, []int64{1}, 0)
	q.Push(tb, []string{"b"}, []int64{2}, 0)
	q.Push(tc, []string{"c"}, []int64{3}, 0)
	q.Push(tb, []string{"b2", "b3"}, []int64{-1, 4}, 0)
	if m, ok := q.Min(); !ok || m != tc {
		t.Fatalf("Min=%v,%v want %v", m, ok, tc)
	}
	if !q.Has(tb) || q.Has(timestamp.Time{Outer: 9}) {
		t.Fatal("Has wrong")
	}
	recs, diffs := q.Take(tb, nil, nil)
	if len(recs) != 3 || recs[0] != "b" || recs[1] != "b2" || recs[2] != "b3" || diffs[0] != 2 || diffs[1] != -1 || diffs[2] != 4 {
		t.Fatalf("Take(tb) = %v %v", recs, diffs)
	}
	if q.Has(tb) {
		t.Fatal("bucket survived Take")
	}
	if m, _ := q.Min(); m != tc {
		t.Fatalf("Min after take = %v", m)
	}
	// An absent time hands the caller's columns back, emptied.
	if r, d := q.Take(tb, recs, diffs); len(r) != 0 || len(d) != 0 || cap(r) != cap(recs) {
		t.Fatalf("Take of an absent bucket = %v %v", r, d)
	}
	// The caller's previous columns come back as the next new bucket's.
	spent := &recs[0]
	recs, diffs = q.Take(tc, recs, diffs)
	if len(recs) != 1 || recs[0] != "c" || diffs[0] != 3 {
		t.Fatalf("Take(tc) = %v %v", recs, diffs)
	}
	q.Push(tb, []string{"again"}, []int64{1}, 0)
	if got, _ := q.Take(tb, nil, nil); &got[0] != spent {
		t.Fatal("a new bucket did not start in the spent column set")
	}
	q.Push(ta, []string{"x", "y"}, []int64{1, 1}, 0)
	q.Reset()
	if _, ok := q.Min(); ok || q.Has(ta) {
		t.Fatal("reset left buckets")
	}
	if r, _ := q.Take(ta, nil, nil); len(r) != 0 {
		t.Fatalf("reset left rows: %v", r)
	}
	q.Push(ta, []string{"z"}, []int64{1}, 0)
	if r, _ := q.Take(ta, nil, nil); len(r) != 1 || r[0] != "z" {
		t.Fatalf("a bucket in a reset queue holds %v", r)
	}
	q.Release()
	if len(q.recs) != 0 {
		t.Fatalf("Release kept %d spent column sets", len(q.recs))
	}
	// A bucket that must grow grows once for the rows the caller says are
	// still to come.
	q.Push(tc, []string{"c1"}, []int64{1}, 0)
	q.Push(tc, []string{"c2", "c3"}, []int64{1, 1}, 6)
	first := &q.recs[0][0]
	q.Push(tc, []string{"c4", "c5", "c6"}, []int64{1, 1, 1}, 3)
	q.Push(tc, []string{"c7", "c8", "c9"}, []int64{1, 1, 1}, 0)
	if r, d := q.Take(tc, nil, nil); len(r) != 9 || len(d) != 9 || &r[0] != first || r[8] != "c9" {
		t.Fatalf("pushes announced by more grew the bucket again or lost rows: %v %v", r, d)
	}
}

// ---- reference implementation -------------------------------------------
//
// refTrace is the arrangement as it was before the streaming clamp-merge:
// row-form staging, a whole-batch re-hash and sort.Sort for every batch that
// needs clamping, a k-way merge and a separate consolidation pass. It is the
// definition of the canonical form; TestCanonicalFormOracle holds Trace to it
// column for column.

type refTuple struct {
	k, v int
	t    timestamp.Time
	d    int64
}

// refBatch is a sorted batch as six parallel columns.
type refBatch struct {
	hks   []uint64
	keys  []int
	vals  []int
	hvs   []uint64
	times []timestamp.Time
	diffs []int64
}

func (b *refBatch) Len() int { return len(b.keys) }

func (b *refBatch) push(hk uint64, k, v int, hv uint64, t timestamp.Time, d int64) {
	b.hks = append(b.hks, hk)
	b.keys = append(b.keys, k)
	b.vals = append(b.vals, v)
	b.hvs = append(b.hvs, hv)
	b.times = append(b.times, t)
	b.diffs = append(b.diffs, d)
}

func (b *refBatch) rows() []row {
	out := make([]row, b.Len())
	for i := range out {
		out[i] = row{b.hks[i], b.hvs[i], b.keys[i], b.vals[i], b.times[i], b.diffs[i]}
	}
	return out
}

type refTrace struct {
	seed     maphash.Seed
	batches  []*refBatch
	stage    []refTuple
	frontier uint32
}

func refLess(hk1 uint64, t1 timestamp.Time, hv1 uint64, hk2 uint64, t2 timestamp.Time, hv2 uint64) bool {
	if hk1 != hk2 {
		return hk1 < hk2
	}
	if t1 != t2 {
		return t1.LexLess(t2)
	}
	return hv1 < hv2
}

type batchSorter struct{ b *refBatch }

func (s batchSorter) Len() int { return len(s.b.keys) }
func (s batchSorter) Less(i, j int) bool {
	b := s.b
	return refLess(b.hks[i], b.times[i], b.hvs[i], b.hks[j], b.times[j], b.hvs[j])
}
func (s batchSorter) Swap(i, j int) {
	b := s.b
	b.hks[i], b.hks[j] = b.hks[j], b.hks[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
	b.hvs[i], b.hvs[j] = b.hvs[j], b.hvs[i]
	b.times[i], b.times[j] = b.times[j], b.times[i]
	b.diffs[i], b.diffs[j] = b.diffs[j], b.diffs[i]
}

func refBuildBatch(seed maphash.Seed, ts []refTuple, outer uint32, clamp bool) *refBatch {
	if len(ts) == 0 {
		return nil
	}
	b := &refBatch{}
	for _, e := range ts {
		t := e.t
		if clamp && t.Outer < outer {
			t.Outer = outer
		}
		b.push(maphash.Comparable(seed, e.k), e.k, e.v, maphash.Comparable(seed, e.v), t, e.d)
	}
	sort.Sort(batchSorter{b})
	return refConsolidateSorted(b)
}

func refConsolidateSorted(b *refBatch) *refBatch {
	n := len(b.keys)
	m := 0
	move := func(w, q int) {
		b.hks[w], b.keys[w], b.vals[w] = b.hks[q], b.keys[q], b.vals[q]
		b.hvs[w], b.times[w], b.diffs[w] = b.hvs[q], b.times[q], b.diffs[q]
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && b.hks[j] == b.hks[i] && b.times[j] == b.times[i] && b.hvs[j] == b.hvs[i] {
			j++
		}
		runStart := m
		for p := i; p < j; p++ {
			merged := false
			for q := runStart; q < m; q++ {
				if b.keys[q] == b.keys[p] && b.vals[q] == b.vals[p] {
					b.diffs[q] += b.diffs[p]
					merged = true
					break
				}
			}
			if !merged {
				move(m, p)
				m++
			}
		}
		w := runStart
		for q := runStart; q < m; q++ {
			if b.diffs[q] != 0 {
				move(w, q)
				w++
			}
		}
		m = w
		i = j
	}
	if m == 0 {
		return nil
	}
	b.hks, b.keys, b.vals = b.hks[:m], b.keys[:m], b.vals[:m]
	b.hvs, b.times, b.diffs = b.hvs[:m], b.times[:m], b.diffs[:m]
	return b
}

func refNeedsClamp(b *refBatch, outer uint32) bool {
	for _, t := range b.times {
		if t.Outer < outer {
			return true
		}
	}
	return false
}

func refMergeBatches(seed maphash.Seed, in []*refBatch, outer uint32, clamp bool) *refBatch {
	var srcs []*refBatch
	for _, b := range in {
		if b == nil || b.Len() == 0 {
			continue
		}
		if clamp && refNeedsClamp(b, outer) {
			// Rebuild through the staging path: clamp, re-sort, consolidate.
			ts := make([]refTuple, b.Len())
			for i := range b.keys {
				ts[i] = refTuple{b.keys[i], b.vals[i], b.times[i], b.diffs[i]}
			}
			if b = refBuildBatch(seed, ts, outer, true); b == nil {
				continue
			}
		}
		srcs = append(srcs, b)
	}
	if len(srcs) == 0 {
		return nil
	}
	if len(srcs) == 1 {
		return srcs[0]
	}
	out := &refBatch{}
	cur := make([]int, len(srcs))
	for {
		best := -1
		for s, b := range srcs {
			i := cur[s]
			if i >= b.Len() {
				continue
			}
			if best < 0 || refLess(b.hks[i], b.times[i], b.hvs[i], srcs[best].hks[cur[best]], srcs[best].times[cur[best]], srcs[best].hvs[cur[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		b, i := srcs[best], cur[best]
		cur[best]++
		out.push(b.hks[i], b.keys[i], b.vals[i], b.hvs[i], b.times[i], b.diffs[i])
	}
	return refConsolidateSorted(out)
}

func (tr *refTrace) clampOuter() (uint32, bool) {
	if tr.frontier == 0 {
		return 0, false
	}
	return tr.frontier - 1, true
}

func (tr *refTrace) Append(k, v int, t timestamp.Time, d int64) {
	if d == 0 {
		return
	}
	tr.stage = append(tr.stage, refTuple{k, v, t, d})
	if len(tr.stage) >= stageThreshold {
		tr.seal()
	}
}

func (tr *refTrace) Advance(outer uint32) {
	if outer+1 <= tr.frontier {
		return
	}
	tr.frontier = outer + 1
	tr.compact()
}

func (tr *refTrace) compact() {
	outer, clamp := tr.clampOuter()
	if len(tr.stage) > 0 {
		b := refBuildBatch(tr.seed, tr.stage, outer, clamp)
		tr.stage = tr.stage[:0]
		if b != nil {
			tr.batches = append(tr.batches, b)
		}
	}
	if len(tr.batches) == 0 || (len(tr.batches) == 1 && !(clamp && refNeedsClamp(tr.batches[0], outer))) {
		return
	}
	merged := refMergeBatches(tr.seed, tr.batches, outer, clamp)
	tr.batches = nil
	if merged != nil {
		tr.batches = []*refBatch{merged}
	}
}

func (tr *refTrace) seal() {
	outer, clamp := tr.clampOuter()
	b := refBuildBatch(tr.seed, tr.stage, outer, clamp)
	tr.stage = tr.stage[:0]
	if b != nil {
		tr.batches = append(tr.batches, b)
	}
	for len(tr.batches) >= 2 {
		n := len(tr.batches)
		total := tr.batches[n-1].Len()
		j := n - 1
		for j > 0 && tr.batches[j-1].Len() < 2*total {
			total += tr.batches[j-1].Len()
			j--
		}
		if j == n-1 {
			return
		}
		merged := refMergeBatches(tr.seed, tr.batches[j:], outer, clamp)
		nb := append([]*refBatch(nil), tr.batches[:j]...)
		if merged != nil {
			nb = append(nb, merged)
		}
		tr.batches = nb
	}
}

// Key counts the tuples recorded for k the way the old lookup did: every
// matching row of every batch plus every matching staged tuple.
func (tr *refTrace) Key(k int) int {
	n := 0
	hk := maphash.Comparable(tr.seed, k)
	for _, b := range tr.batches {
		lo := sort.Search(len(b.hks), func(i int) bool { return b.hks[i] >= hk })
		for i := lo; i < len(b.hks) && b.hks[i] == hk; i++ {
			if b.keys[i] == k {
				n++
			}
		}
	}
	for _, e := range tr.stage {
		if e.k == k {
			n++
		}
	}
	return n
}

func (tr *refTrace) Reset() { tr.batches, tr.stage, tr.frontier = nil, tr.stage[:0], 0 }

// ---- the trace against the reference -------------------------------------

type row struct {
	hk, hv uint64
	k, v   int
	t      timestamp.Time
	d      int64
}

func rows(b *Batch[int, int]) []row {
	out := make([]row, b.Len())
	for i := range out {
		out[i] = row{b.hks[i], b.hvs[i], b.keys[i], b.vals[i], b.times[i], b.diffs[i]}
	}
	return out
}

// dump deep-copies a trace's content: one row list per batch, then the stage.
func dump(tr *Trace[int, int]) [][]row {
	var out [][]row
	for _, b := range tr.batches {
		out = append(out, rows(b))
	}
	return append(out, rows(&tr.stage))
}

// sameAsRef fails unless tr holds exactly the reference's batches, column
// for column, the same staged tuples in the same order, and reports the same
// Key count for every key.
func sameAsRef(t *testing.T, where string, tr *Trace[int, int], ref *refTrace, keys int) {
	t.Helper()
	if len(tr.batches) != len(ref.batches) {
		t.Fatalf("%s: %d batches, reference has %d", where, len(tr.batches), len(ref.batches))
	}
	for i, b := range tr.batches {
		if got, want := rows(b), ref.batches[i].rows(); !slices.Equal(got, want) {
			t.Fatalf("%s: batch %d differs from the reference (%d vs %d rows)", where, i, len(got), len(want))
		}
	}
	if tr.stage.Len() != len(ref.stage) {
		t.Fatalf("%s: stage holds %d tuples, reference %d", where, tr.stage.Len(), len(ref.stage))
	}
	for i, e := range ref.stage {
		st := &tr.stage
		if st.keys[i] != e.k || st.vals[i] != e.v || st.times[i] != e.t || st.diffs[i] != e.d {
			t.Fatalf("%s: staged tuple %d differs from the reference", where, i)
		}
	}
	for k := 0; k < keys; k++ {
		if got, want := tr.Key(k, func(int, timestamp.Time, int64) {}), ref.Key(k); got != want {
			t.Fatalf("%s: Key(%d) visits %d tuples, reference %d", where, k, got, want)
		}
	}
}

// TestCanonicalFormOracle drives the trace and the reference through seeded
// random streams that mix Outer values inside one batch, skip versions on
// Advance, append views larger than half the history (a seal then merges
// into the canonical batch before the next Advance), cancel everything down
// to an empty trace, reset and reuse the spare — and holds snapshots taken
// before and after an Advance across two further Advances, which is when a
// wrongly recycled column set would be scribbled on.
func TestCanonicalFormOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := NewTrace[int, int]()
		ref := &refTrace{seed: tr.seed}
		keys := 3 + r.Intn(300)
		var log []refTuple // every tuple appended since the last reset
		app := func(k, v int, ts timestamp.Time, d int64) {
			tr.Append(k, v, ts, d)
			ref.Append(k, v, ts, d)
			log = append(log, refTuple{k, v, ts, d})
		}
		type held struct {
			snap *Trace[int, int]
			want [][]row
			due  int
		}
		var snaps []held
		hold := func(view int) {
			s := tr.Snapshot()
			snaps = append(snaps, held{s, dump(s), view + 2})
		}
		frontier := uint32(0)
		advance := func(where string, by uint32) {
			frontier += by
			tr.Advance(frontier)
			ref.Advance(frontier)
			sameAsRef(t, where, tr, ref, keys)
			if tr.Batches() > 1 || tr.stage.Len() != 0 {
				t.Fatalf("%s: not canonical after Advance: %d batches, %d staged", where, tr.Batches(), tr.stage.Len())
			}
		}
		for view := 0; view < 40; view++ {
			n := r.Intn(120)
			if r.Intn(4) == 0 {
				n = tr.Len()/2 + 1 + r.Intn(2*stageThreshold)
			}
			for i := 0; i < n; i++ {
				ts := timestamp.Time{Outer: frontier + uint32(r.Intn(3)), Inner: uint32(r.Intn(4))}
				app(r.Intn(keys), r.Intn(4), ts, int64(r.Intn(5)-2))
			}
			sameAsRef(t, "after appends", tr, ref, keys)
			if view%3 == 0 {
				hold(view)
			}
			advance("after Advance", 1+uint32(r.Intn(3)))
			if view%3 == 1 {
				hold(view)
			}
			switch view {
			case 17:
				// Retract everything at the frontier: once the history is
				// clamped up to it, every tuple meets its negation.
				advance("before retraction", 3)
				for _, e := range log[:len(log):len(log)] {
					app(e.k, e.v, timestamp.Time{Outer: frontier, Inner: e.t.Inner}, -e.d)
				}
				advance("after retraction", 1)
				if tr.Len() != 0 || tr.Batches() != 0 {
					t.Fatalf("seed %d: retraction left %d tuples in %d batches", seed, tr.Len(), tr.Batches())
				}
			case 29:
				tr.Reset()
				ref.Reset()
				log, frontier = nil, 0
				if tr.Len() != 0 || tr.Batches() != 0 {
					t.Fatalf("seed %d: reset left state", seed)
				}
			}
			for _, h := range snaps {
				if view >= h.due && !reflect.DeepEqual(dump(h.snap), h.want) {
					t.Fatalf("seed %d view %d: a snapshot taken at view %d changed under the original's merges", seed, view, h.due-2)
				}
			}
		}
	}
}

// onFreeList reports whether b waits on tr's free list.
func onFreeList(tr *Trace[int, int], b *Batch[int, int]) bool {
	for _, f := range tr.free {
		if f == b {
			return true
		}
	}
	return false
}

// TestSpareRecycling pins the ping-pong: once warm, each Advance writes the
// canonical batch into the columns of the one before the last, and a
// snapshot's batch stays out of the rotation.
func TestSpareRecycling(t *testing.T) {
	tr := NewTrace[int, int]()
	view := func(v uint32) *Batch[int, int] {
		for i := 0; i < 50; i++ {
			tr.Append(i, int(v), timestamp.Outer(v), 1)
		}
		tr.Advance(v)
		return tr.batches[0]
	}
	// Three stage-sized column sets rotate: the sealed stage,
	// the canonical batch and its predecessor.
	warm := map[*uint64]bool{}
	for v := uint32(0); v < 3; v++ {
		warm[&view(v).hks[0]] = true
	}
	a := view(3)
	if !warm[&a.hks[0]] {
		t.Fatal("a warm Advance wrote the canonical batch into new columns")
	}
	snap := tr.Snapshot() // pins the current canonical batch
	want := dump(snap)
	if b := view(4); onFreeList(tr, a) || &b.hks[0] == &a.hks[0] {
		t.Fatal("a snapshot's batch was recycled")
	}
	view(5)
	if !reflect.DeepEqual(dump(snap), want) {
		t.Fatal("snapshot changed")
	}
	// A column set nothing uses between two turns is released: the free list
	// holds only what the last two views used.
	for v := uint32(6); v < 12; v++ {
		view(v)
	}
	if len(tr.free) > 3 {
		t.Fatalf("free list kept %d column sets across idle turns", len(tr.free))
	}
	live := tr.batches[0]
	tr.Reset()
	if !onFreeList(tr, live) || tr.Len() != 0 {
		t.Fatal("Reset should drop the history and keep its columns")
	}
}

// TestFitPicks covers each arm of the free-list pick. A seal or partial merge
// takes the smallest set with room for n rows in no more than 2n, else none
// (a new set is allocated beside); a whole-stack merge takes the smallest set
// with room, however large, else the largest, and fresh replaces its columns
// instead of leaving it behind. Sizes are in units of u rows, a 256th of the
// stage, so the smallest request is one stage's worth, fresh's floor.
func TestFitPicks(t *testing.T) {
	const u = stageThreshold / 256
	tr := NewTrace[int, int]()
	for _, c := range []int{600 * u, 300 * u, 5000 * u} {
		tr.free = append(tr.free, new(Batch[int, int]).blank(c))
	}
	for _, c := range []struct {
		n     int
		whole bool
		want  int // capacity of the set picked, 0 for none
	}{
		// A seal or partial merge: the smallest set with room, up to twice the rows.
		{256 * u, false, 300 * u}, {301 * u, false, 600 * u}, {2500 * u, false, 5000 * u},
		{601 * u, false, 0}, {1000 * u, false, 0}, // 5000u is more than twice the rows
		{5001 * u, false, 0}, // nothing has room, and no partial merge regrows a set
		// A whole-stack merge: the smallest set with room, however large.
		{256 * u, true, 300 * u}, {601 * u, true, 5000 * u}, {1000 * u, true, 5000 * u},
		{5001 * u, true, 5000 * u}, // nothing has room: the largest
	} {
		got := 0
		if i := tr.fit(c.n, c.whole); i >= 0 {
			got = cap(tr.free[i].hks)
		}
		if got != c.want {
			t.Errorf("fit(%d, whole %v) picked capacity %d, want %d", c.n, c.whole, got, c.want)
		}
	}
	if i := NewTrace[int, int]().fit(stageThreshold, true); i != -1 {
		t.Errorf("an empty free list offered set %d", i)
	}
	largest := tr.free[2]
	if b := tr.fresh(6000*u, true); b != largest || cap(b.hks) < 6250*u || len(tr.free) != 2 || onFreeList(tr, b) {
		t.Errorf("an outgrown whole-stack merge should take the largest set over, a quarter larger: got capacity %d, %d sets left", cap(b.hks), len(tr.free))
	}
	if b := tr.fresh(1000*u, false); cap(b.hks) != 1000*u || len(tr.free) != 2 {
		t.Errorf("a partial merge nothing fits should allocate beside the list: got capacity %d, %d sets left", cap(b.hks), len(tr.free))
	}
}

// TestResetRecyclesColumns pins the scratch path: a trace that is reset and
// refilled the way a pooled replica's next view refills it seals and merges
// into the column sets its last run grew, allocating next to nothing, never
// writes into a batch a snapshot shares, and holds no more free capacity than
// it once held live.
func TestResetRecyclesColumns(t *testing.T) {
	tr := NewTrace[int, int]()
	const rows = 20_000
	run := func() {
		r := rand.New(rand.NewSource(3))
		for i := 0; i < rows; i++ {
			k := r.Intn(rows / 8)
			tr.Append(k, i, timestamp.Time{Inner: uint32(r.Intn(4))}, 1)
			if i%5 == 0 { // a retraction, so seals and merges consolidate
				tr.Append(k, i, timestamp.Time{Inner: uint32(r.Intn(4))}, -1)
			}
		}
	}
	measure := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	cold := measure()
	tr.Reset()
	for i := 0; i < 3; i++ { // warm: the free list settles
		run()
		tr.Reset()
	}
	warm := measure()
	t.Logf("bytes allocated by a %d-row run: %d cold, %d after reset", rows, cold, warm)
	// What is left is the batch stack's slice, rebuilt by every merge.
	if warm > 16<<10 || warm > cold/100 {
		t.Fatalf("a reset trace's rerun allocated %d bytes (cold run: %d)", warm, cold)
	}

	snap := tr.Snapshot()
	want, pinned := dump(snap), append([]*Batch[int, int](nil), tr.batches...)
	tr.Reset()
	for _, b := range pinned {
		if onFreeList(tr, b) {
			t.Fatal("Reset recycled a batch a snapshot shares")
		}
	}
	run()
	if !reflect.DeepEqual(dump(snap), want) {
		t.Fatal("a rerun wrote into a snapshot's batch")
	}
}

// visit is one row a read of a key hands out.
type visit struct {
	v  int
	hv uint64
	t  timestamp.Time
	d  int64
}

// scan is the brute-force read of key k the stage index must agree with:
// every batch's rows in order, then every staged row, in arrival order.
func scan(tr *Trace[int, int], hk uint64, k int) []visit {
	var out []visit
	for _, b := range append(slices.Clone(tr.batches), &tr.stage) {
		for i := range b.hks {
			if b.hks[i] == hk && b.keys[i] == k {
				out = append(out, visit{b.vals[i], b.hvs[i], b.times[i], b.diffs[i]})
			}
		}
	}
	return out
}

// checkReads holds Key and a Cursor opened on tr to scan over keys, sorted
// here by hash, repeats included: the same rows in the same order.
func checkReads(t *testing.T, where string, tr *Trace[int, int], c *Cursor[int, int], keys []int) {
	t.Helper()
	slices.SortFunc(keys, func(a, b int) int { return cmp.Compare(tr.Hash(a), tr.Hash(b)) })
	c.Open(tr)
	for _, k := range keys {
		hk, want := tr.Hash(k), scan(tr, tr.Hash(k), k)
		var byKey []visit
		n := tr.Key(k, func(v int, ts timestamp.Time, d int64) {
			byKey = append(byKey, visit{v, maphash.Comparable(tr.seed, v), ts, d})
		})
		runs, m := c.Seek(hk, k)
		var byCursor []visit
		for _, run := range runs {
			for i, v := range run.Vals {
				byCursor = append(byCursor, visit{v, run.Hvs[i], run.Times[i], run.Diffs[i]})
			}
		}
		if n != len(want) || !slices.Equal(byKey, want) {
			t.Fatalf("%s: key %d: Key visits %d rows %v, the scan finds %v", where, k, n, byKey, want)
		}
		if m != len(want) || !slices.Equal(byCursor, want) {
			t.Fatalf("%s: key %d: the cursor hands out %d rows %v, the scan finds %v", where, k, m, byCursor, want)
		}
	}
}

// TestCursorMatchesKey holds Key and Cursor.Seek to a brute-force scan of
// every batch row and every staged row on random traces: appends over a key
// space wide enough that the stage index's buckets hold several keys, a hub
// key, seals, Advance, Reset, and Snapshot, both traces read on after it.
func TestCursorMatchesKey(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := NewTrace[int, int]()
		var c Cursor[int, int]
		outer := uint32(0)
		sample := func() []int {
			keys := make([]int, 40)
			for i := range keys {
				keys[i] = r.Intn(6000)
			}
			return append(keys, -1) // the hub
		}
		for step := 0; step < 6000; step++ {
			k := r.Intn(6000)
			if r.Intn(8) == 0 {
				k = -1
			}
			tr.Append(k, r.Intn(9), timestamp.Time{Outer: outer + uint32(r.Intn(2)), Inner: uint32(r.Intn(4))}, int64(r.Intn(3)-1))
			switch r.Intn(1000) {
			case 0, 1, 2:
				outer++
				tr.Advance(outer)
			case 3:
				tr.Reset()
				outer = 0
			case 4:
				snap := tr.Snapshot()
				checkReads(t, fmt.Sprintf("seed %d step %d, snapshot", seed, step), snap, &c, sample())
				for i := 0; i < 300; i++ {
					snap.Append(r.Intn(6000), r.Intn(9), timestamp.Time{Outer: outer}, 1)
				}
				checkReads(t, fmt.Sprintf("seed %d step %d, snapshot appended to", seed, step), snap, &c, sample())
			}
			if step%89 == 0 {
				checkReads(t, fmt.Sprintf("seed %d step %d (%d staged)", seed, step, tr.stage.Len()), tr, &c, sample())
			}
		}
	}
}

// TestSnapshotStageIndependence snapshots a trace with a half-full stage and
// appends to each side keys the stage already holds, in the buckets of the
// rows both share: neither side's Key nor Cursor may see the other's rows.
func TestSnapshotStageIndependence(t *testing.T) {
	tr := NewTrace[int, int]()
	const keys = 40
	for i := 0; i < 2*stageThreshold+stageThreshold/2; i++ {
		tr.Append(i%keys, i, timestamp.Time{}, 1)
	}
	all := make([]int, keys)
	for k := range all {
		all[k] = k
	}
	contents := func(x *Trace[int, int]) map[int][]visit {
		out := make(map[int][]visit)
		for _, k := range all {
			out[k] = scan(x, x.Hash(k), k)
		}
		return out
	}
	snap := tr.Snapshot()
	before := contents(tr)
	for i := 0; i < stageThreshold/4; i++ {
		tr.Append(i%keys, -1-i, timestamp.Outer(1), 1)
	}
	var c Cursor[int, int]
	checkReads(t, "snapshot after appends to the original", snap, &c, slices.Clone(all))
	if !reflect.DeepEqual(contents(snap), before) {
		t.Fatal("the original's appends changed the snapshot's rows")
	}
	mid := contents(tr)
	for i := 0; i < stageThreshold/4; i++ {
		snap.Append(i%keys, 1<<20+i, timestamp.Outer(2), 1)
	}
	checkReads(t, "original after appends to the snapshot", tr, &c, slices.Clone(all))
	checkReads(t, "snapshot after its own appends", snap, &c, slices.Clone(all))
	if !reflect.DeepEqual(contents(tr), mid) {
		t.Fatal("the snapshot's appends changed the original's rows")
	}
}

// TestCursorCollidingKeys hands the cursor a batch where two keys share a
// hash and interleave: each key gets its own rows, in pieces.
func TestCursorCollidingKeys(t *testing.T) {
	tr := NewTrace[int, int]()
	b := new(Batch[int, int]).blank(4)
	b.push(5, 1, 10, 0, timestamp.Time{}, 1)
	b.push(5, 2, 20, 0, timestamp.Time{}, 1)
	b.push(5, 1, 11, 0, timestamp.Time{Inner: 1}, 1)
	b.push(9, 3, 30, 0, timestamp.Time{}, 1)
	b.index()
	tr.batches = []*Batch[int, int]{b}
	var c Cursor[int, int]
	c.Open(tr)
	for _, want := range []struct{ k, n, pieces int }{{1, 2, 2}, {2, 1, 1}, {3, 1, 1}} {
		hk := uint64(5)
		if want.k == 3 {
			hk = 9
		}
		runs, n := c.Seek(hk, want.k)
		if n != want.n || len(runs) != want.pieces {
			t.Fatalf("key %d: %d rows in %d pieces, want %d in %d", want.k, n, len(runs), want.n, want.pieces)
		}
		for _, run := range runs {
			for _, v := range run.Vals {
				if v/10 != want.k {
					t.Fatalf("key %d got value %d", want.k, v)
				}
			}
		}
	}
}

// compare is the order a sealed batch must hold its rows in, kept as the
// seal's oracle: (hk, time, hv).
func (b *Batch[K, V]) compare(i, j uint32) int {
	if c := cmp.Compare(b.hks[i], b.hks[j]); c != 0 {
		return c
	}
	if c := compareTimes(b.times[i], b.times[j]); c != 0 {
		return c
	}
	return cmp.Compare(b.hvs[i], b.hvs[j])
}

// stageRow stages one row with a chosen key hash, as AppendHashed would.
func stageRow(tr *Trace[int, int], hk uint64, k, v int, hv uint64, t timestamp.Time, d int64) {
	if tr.idx == nil {
		tr.idx = new(stageIndex)
	}
	tr.idx.link(hk, tr.stage.Len())
	tr.stage.push(hk, k, v, hv, t, d)
}

// checkSeal seals tr's stage and holds the batch it writes to the staged
// rows: in compare order, consolidated (no two rows of one key, value and
// time, no zero diff), and the same multiset, diffs summed.
func checkSeal(t *testing.T, name string, tr *Trace[int, int]) {
	t.Helper()
	type tuple struct {
		hk, hv uint64
		k, v   int
		t      timestamp.Time
	}
	sum := func(b *Batch[int, int], out map[tuple]int64) {
		for i := range b.hks {
			e := tuple{b.hks[i], b.hvs[i], b.keys[i], b.vals[i], b.times[i]}
			if out[e] += b.diffs[i]; out[e] == 0 {
				delete(out, e)
			}
		}
	}
	want := make(map[tuple]int64)
	sum(&tr.stage, want)
	n, held := tr.stage.Len(), tr.Batches()
	tr.sealStage()
	if tr.stage.Len() != 0 {
		t.Fatalf("%s: %d rows left staged", name, tr.stage.Len())
	}
	got := make(map[tuple]int64)
	if tr.Batches() > held {
		b := tr.batches[len(tr.batches)-1]
		for p := 1; p < b.Len(); p++ {
			if b.compare(uint32(p-1), uint32(p)) > 0 {
				t.Fatalf("%s: rows %d and %d of the sealed batch are out of order (hash %x, time %v, value hash %x before hash %x, time %v, value hash %x)",
					name, p-1, p, b.hks[p-1], b.times[p-1], b.hvs[p-1], b.hks[p], b.times[p], b.hvs[p])
			}
		}
		sum(b, got)
		if len(got) != b.Len() {
			t.Fatalf("%s: the sealed batch's %d rows hold %d distinct tuples", name, b.Len(), len(got))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %d staged rows sealed into %d tuples, want %d", name, n, len(got), len(want))
	}
}

// TestSealOrderMatchesComparator holds the seal's bucket-by-bucket read-out
// to the comparator order: stages of every size around the insertion sort's
// limit and up to the threshold, hub keys whose one bucket takes the
// slices.SortFunc arm, hashes that share their top bits and differ below
// them, a stage whose hashes are all equal, and a second stage sealed after
// the first (the index cleared between them).
func TestSealOrderMatchesComparator(t *testing.T) {
	tr := NewTrace[int, int]()
	r := rand.New(rand.NewSource(5))
	stage := func(n, keys, hub int, hash func(k int) uint64) {
		for i := 0; i < n; i++ {
			k := r.Intn(keys)
			if i < hub {
				k = -1
			}
			v := r.Intn(8)
			d := int64(1)
			if r.Intn(4) == 0 {
				d = -1
			}
			stageRow(tr, hash(k), k, v, maphash.Comparable(tr.seed, v), timestamp.Time{Outer: uint32(r.Intn(3)), Inner: uint32(r.Intn(3))}, d)
		}
	}
	prefixes := func(k int) uint64 { // a dozen top-bit prefixes, fixed bits below
		return uint64(k%12)<<60 | maphash.Comparable(tr.seed, k)>>8
	}
	one := func(int) uint64 { return 0x9e3779b97f4a7c15 }
	for _, n := range []int{0, 1, 2, 31, 32, 33, 255, 256, stageThreshold - 1, stageThreshold} {
		stage(n, n/2+1, 0, tr.Hash)
		checkSeal(t, fmt.Sprintf("%d rows over %d keys", n, n/2+1), tr)
		stage(n, 3, 0, tr.Hash)
		checkSeal(t, fmt.Sprintf("%d rows over 3 keys", n), tr)
		stage(n, n+1, 0, prefixes)
		checkSeal(t, fmt.Sprintf("%d rows on 12 top-bit prefixes", n), tr)
		stage(n, n+1, 0, one)
		checkSeal(t, fmt.Sprintf("%d rows on one hash", n), tr)
	}
	stage(stageThreshold, 200, 100, tr.Hash)
	checkSeal(t, fmt.Sprintf("a hub key's 100 rows in %d", stageThreshold), tr)
	stage(33, 1, 33, tr.Hash)
	checkSeal(t, "a hub key's 33 rows in 33", tr)
}

// FuzzSealOrder holds the seal to the comparator order on stages read from
// the input, four bytes a row: the hash's top and bottom byte, so rows share
// buckets and hashes at every stage size, a time, and a value hash whose top
// bit negates the diff. Keys and values follow their hashes, so equal rows
// meet and fold.
func FuzzSealOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 0, 4, 200, 0, 7, 1})
	f.Add(bytes.Repeat([]byte{0x80, 1, 5, 9, 0x80, 2, 5, 9, 0x81, 1, 6, 2, 0x80, 1, 5, 0x89}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTrace[int, int]()
		n := min(len(data)/4, stageThreshold)
		for i := 0; i < n; i++ {
			b := data[4*i : 4*i+4]
			hk, hv, d := uint64(b[0])<<56|uint64(b[1]), uint64(b[3]&0x7f), int64(1)
			if b[3]&0x80 != 0 {
				d = -1
			}
			stageRow(tr, hk, int(hk), int(hv), hv, timestamp.Time{Outer: uint32(b[2] >> 4), Inner: uint32(b[2] & 15)}, d)
		}
		checkSeal(t, fmt.Sprintf("%d fuzzed rows", n), tr)
	})
}
