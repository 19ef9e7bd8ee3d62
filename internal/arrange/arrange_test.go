package arrange

import (
	"math/rand"
	"reflect"
	"slices"
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

// TestAdvanceIsLazy checks that Advance only records the frontier: a key's
// entries keep their times until the key is next read or appended to, which
// clamps them, merges the entries that come to share (time, value), drops
// those that cancel and leaves the rest in time order. A key nobody touches
// keeps its raw entries.
func TestAdvanceIsLazy(t *testing.T) {
	tr := NewTrace[int, int]()
	at := func(o, i uint32) timestamp.Time { return timestamp.Time{Outer: o, Inner: i} }
	for _, k := range []int{1, 2} {
		tr.Append(k, 10, at(0, 2), 1)
		tr.Append(k, 10, at(1, 2), 1)
		tr.Append(k, 20, at(0, 1), 1)
		tr.Append(k, 20, at(2, 1), -1)
		tr.Append(k, 30, at(3, 0), 1)
	}
	raw := func(k int) []Entry[int] {
		s, _ := tr.keys.Find(tr.Hash(k), k)
		return slices.Clone(tr.slab.At(s))
	}
	before := raw(1)
	tr.Advance(2)
	if got := raw(1); !slices.Equal(got, before) {
		t.Fatalf("Advance touched a key's entries: %v, was %v", got, before)
	}
	want := []Entry[int]{{at(2, 2), 10, 2}, {at(3, 0), 30, 1}}
	if got := tr.Entries(tr.Hash(1), 1); !slices.Equal(got, want) {
		t.Fatalf("key 1 read after Advance: %v, want %v", got, want)
	}
	if got := raw(2); !slices.Equal(got, before) {
		t.Fatalf("reading key 1 touched key 2: %v, was %v", got, before)
	}
	tr.Append(2, 40, at(3, 1), 1)
	want = append(want, Entry[int]{at(3, 1), 40, 1})
	if got := tr.Entries(tr.Hash(2), 2); !slices.Equal(got, want) {
		t.Fatalf("key 2 appended to after Advance: %v, want %v", got, want)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len %d after both keys settled, want 5", tr.Len())
	}
	// An update that cancels an entry at its own time drops it at once.
	tr.Append(2, 40, at(3, 1), -1)
	if got := tr.Entries(tr.Hash(2), 2); !slices.Equal(got, want[:2]) {
		t.Fatalf("key 2 after a cancelling append: %v, want %v", got, want[:2])
	}
}

// TestSnapshotIsolation checks that a snapshot is a copy: appends, advances
// and resets on the original never disturb it, and vice versa.
func TestSnapshotIsolation(t *testing.T) {
	tr := NewTrace[int, int]()
	t0 := timestamp.Time{}
	const n = 3*1024 + 17
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
	// Mutate the original heavily: appends that move and rebuild its spans,
	// an Advance that clamps what is read next, then a reset.
	for i := 0; i < 8*1024; i++ {
		tr.Append(i%50, 1000+i, t0, 1)
	}
	tr.Advance(5)
	for i := 0; i < 2*1024; i++ {
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
	for i := 0; i < 2*1024; i++ {
		snap.Append(i%50, 3000+i, t0, 1)
	}
	if tr.Len() != 0 {
		t.Fatalf("original trace grew from snapshot appends: Len=%d", tr.Len())
	}
}

// TestResetDropsByReference checks that a reset leaves nothing behind and
// that the trace is usable after it.
func TestResetDropsByReference(t *testing.T) {
	tr := NewTrace[int, int]()
	for i := 0; i < 4*1024; i++ {
		tr.Append(i, i, timestamp.Time{}, 1)
	}
	if tr.Batches() != 1 {
		t.Fatalf("a trace holding entries reports %d batches, want 1", tr.Batches())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Batches() != 0 {
		t.Fatalf("reset left state: Len=%d Batches=%d", tr.Len(), tr.Batches())
	}
	if n := tr.Key(7, func(int, timestamp.Time, int64) {}); n != 0 {
		t.Fatalf("a reset trace visited %d entries of a key it held", n)
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
}

// canonical checks that key k's first read after the frontier moved to outer
// is its canonical form, and returns it: each (time, value) once, in time
// order, no zero diff, no time below the frontier.
func canonical(t *testing.T, where string, tr *Trace[int, int], k int, outer uint32) []Entry[int] {
	t.Helper()
	es := slices.Clone(tr.Entries(tr.Hash(k), k))
	seen := make(map[acc]bool, len(es))
	for i, e := range es {
		if e.D == 0 || e.T.Outer < outer {
			t.Fatalf("%s: key %d entry %v is not settled at frontier %d", where, k, e, outer)
		}
		if i > 0 && LexCmp(es[i-1].T, e.T) > 0 {
			t.Fatalf("%s: key %d entries %v, %v out of time order", where, k, es[i-1], e)
		}
		if seen[acc{e.V, e.T}] {
			t.Fatalf("%s: key %d holds (%v, %d) twice", where, k, e.T, e.V)
		}
		seen[acc{e.V, e.T}] = true
	}
	return es
}

// TestCanonicalFormOracle drives a trace and a map of each key's raw updates
// through seeded random streams that mix Outer values within one view, skip
// versions on Advance, append views larger than half the history, cancel
// everything down to an empty trace and reset, and holds snapshots taken
// before and after an Advance across two further Advances. After every
// Advance each key's first read must be its canonical form and hold exactly
// the map's updates, clamped to the frontier and summed.
func TestCanonicalFormOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := NewTrace[int, int]()
		keys := 3 + r.Intn(300)
		oracle := make(map[int][]Entry[int]) // raw updates since the last reset
		app := func(k, v int, ts timestamp.Time, d int64) {
			tr.Append(k, v, ts, d)
			oracle[k] = append(oracle[k], Entry[int]{ts, v, d})
		}
		dump := func(tr *Trace[int, int]) [][]Entry[int] {
			out := make([][]Entry[int], keys)
			for k := range out {
				out[k] = slices.Clone(tr.Entries(tr.Hash(k), k))
			}
			return out
		}
		type held struct {
			snap *Trace[int, int]
			want [][]Entry[int]
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
			live := 0
			for k := 0; k < keys; k++ {
				want := make(map[acc]int64)
				for _, e := range oracle[k] {
					want[acc{e.V, ClampTime(e.T, frontier)}] += e.D
				}
				for e, d := range want {
					if d == 0 {
						delete(want, e)
					}
				}
				got := canonical(t, where, tr, k, frontier)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s: key %d holds %d entries, want %d", seed, where, k, len(got), len(want))
				}
				for _, e := range got {
					if want[acc{e.V, e.T}] != e.D {
						t.Fatalf("seed %d %s: key %d entry %v, want diff %d", seed, where, k, e, want[acc{e.V, e.T}])
					}
				}
				live += len(got)
			}
			if tr.Len() != live || tr.Batches() > 1 {
				t.Fatalf("seed %d %s: Len %d, Batches %d after every key settled to %d entries", seed, where, tr.Len(), tr.Batches(), live)
			}
		}
		for view := 0; view < 40; view++ {
			n := r.Intn(120)
			if r.Intn(4) == 0 {
				n = tr.Len()/2 + 1 + r.Intn(2048)
			}
			for i := 0; i < n; i++ {
				ts := timestamp.Time{Outer: frontier + uint32(r.Intn(3)), Inner: uint32(r.Intn(4))}
				app(r.Intn(keys), r.Intn(4), ts, int64(r.Intn(5)-2))
			}
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
				// clamped up to it, every update meets its negation.
				advance("before retraction", 3)
				for k := 0; k < keys; k++ {
					for _, e := range slices.Clone(oracle[k]) {
						app(k, e.V, timestamp.Time{Outer: frontier, Inner: e.T.Inner}, -e.D)
					}
				}
				advance("after retraction", 1)
				if tr.Len() != 0 || tr.Batches() != 0 {
					t.Fatalf("seed %d: retraction left %d entries, %d batches", seed, tr.Len(), tr.Batches())
				}
			case 29:
				tr.Reset()
				clear(oracle)
				frontier = 0
				if tr.Len() != 0 || tr.Batches() != 0 {
					t.Fatalf("seed %d: reset left state", seed)
				}
			}
			for _, h := range snaps {
				if view >= h.due && !reflect.DeepEqual(dump(h.snap), h.want) {
					t.Fatalf("seed %d view %d: a snapshot taken at view %d changed under the original", seed, view, h.due-2)
				}
			}
		}
	}
}
