package arrange

import (
	"math/rand"
	"slices"
	"testing"

	"graphsurge/internal/timestamp"
)

// history returns a trace holding n tuples over n/8 keys at version 0, and
// the generator that built it.
func history(n int) (*Trace[uint64, uint64], *rand.Rand) {
	r := rand.New(rand.NewSource(int64(n)))
	tr := NewTrace[uint64, uint64]()
	for i := 0; i < n; i++ {
		tr.Append(uint64(r.Intn(n/8)), uint64(i), timestamp.Time{Inner: uint32(r.Intn(4))}, 1)
	}
	tr.Advance(0)
	return tr, r
}

// view appends a version of size tuples over the same key space and advances
// the frontier past it, the way an operator sees one view of a collection.
func view(tr *Trace[uint64, uint64], r *rand.Rand, keys int, v uint32, size int) {
	for i := 0; i < size; i++ {
		tr.Append(uint64(r.Intn(keys)), r.Uint64(), timestamp.Time{Outer: v, Inner: uint32(r.Intn(4))}, 1)
	}
	tr.Advance(v)
}

// TestAdvanceSteadyStateAllocs checks that a warm trace allocates nothing.
// A round that appends a small view to a 100k-tuple history, advances the
// frontier and reads the keys it touched, then retracts the view the same
// way, leaves the trace as large as it found it, so once the arrays have
// room it takes no new one.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	tr, r := history(100_000)
	keys := make([]uint64, 64)
	vals := make([]uint64, 64)
	v := uint32(0)
	round := func() {
		for _, d := range []int64{1, -1} {
			v++
			for i := range keys {
				tr.Append(keys[i], vals[i], timestamp.Time{Outer: v, Inner: uint32(i % 4)}, d)
			}
			tr.Advance(v)
			for _, k := range keys {
				tr.Key(k, func(uint64, timestamp.Time, int64) {})
			}
		}
	}
	for i := range keys {
		keys[i], vals[i] = uint64(r.Intn(100_000/8)), r.Uint64()
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("a warm append + Advance round allocated %.1f times", n)
	}
	if tr.Len() != 100_000 {
		t.Fatalf("the rounds left %d tuples, want 100 000", tr.Len())
	}
}

// TestResetRecyclesColumns checks that Reset keeps the trace's arrays: a
// trace reset and refilled the way a pooled replica's next view refills it
// finds its key table and both slab arrays large enough and allocates
// nothing, and never writes into a snapshot taken before the reset.
func TestResetRecyclesColumns(t *testing.T) {
	tr := NewTrace[uint64, uint64]()
	r := rand.New(rand.NewSource(3))
	rerun := func() {
		reset(tr)
		r.Seed(3)
		for i := 0; i < 50_000; i++ {
			k := uint64(r.Intn(50_000 / 8))
			tr.Append(k, uint64(i), timestamp.Time{Inner: uint32(r.Intn(4))}, 1)
			if i%5 == 0 { // a retraction, so some entries cancel
				tr.Append(k, uint64(i), timestamp.Time{Inner: uint32(r.Intn(4))}, -1)
			}
		}
	}
	rerun()
	rerun()
	if n := testing.AllocsPerRun(5, rerun); n != 0 {
		t.Fatalf("a reset trace's rerun allocated %.1f times", n)
	}

	snap := tr.Snapshot()
	want := make(map[uint64][]Entry[uint64])
	for k := uint64(0); k < 50_000/8; k++ {
		want[k] = slices.Clone(entries(snap, k))
	}
	rerun()
	tr.Advance(1)
	for k := uint64(0); k < 50_000/8; k++ {
		if got := entries(snap, k); !slices.Equal(got, want[k]) {
			t.Fatalf("key %d of a snapshot changed under the original's reset and rerun: %v, was %v", k, got, want[k])
		}
	}
}

// TestWarmSealAllocs checks that a warm trace absorbs a full batch of appends
// without allocating: a round of 1 024 updates over 64 hub keys at one
// version, an Advance that settles them, and their retraction at the next
// version grows every key's span by a batch's share and shrinks it again, so
// once the slab has room the rounds take no new array.
func TestWarmSealAllocs(t *testing.T) {
	const rows = 1024
	tr := NewTrace[uint64, uint64]()
	r := rand.New(rand.NewSource(2))
	ks, vs, inner := make([]uint64, rows), make([]uint64, rows), make([]uint32, rows)
	v := uint32(0)
	round := func() {
		for i := range ks {
			ks[i], vs[i], inner[i] = uint64(r.Intn(64)), r.Uint64(), uint32(r.Intn(4))
		}
		for _, d := range []int64{1, -1} {
			for i := range ks {
				tr.Append(ks[i], vs[i], timestamp.Time{Outer: v, Inner: inner[i]}, d)
			}
			tr.Advance(v)
			for k := uint64(0); k < 64; k++ {
				tr.Key(k, func(uint64, timestamp.Time, int64) {})
			}
			v++
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a warm round of %d appends allocated %.1f times", rows, n)
	}
	if tr.Len() != 0 {
		t.Fatalf("the rounds left %d entries, want none", tr.Len())
	}
}

// BenchmarkAdvanceSmallDelta is mutate.incremental's shape: a 100k-tuple
// history absorbing one 90-tuple view per iteration, each touched key read
// once after the frontier moves.
func BenchmarkAdvanceSmallDelta(b *testing.B) {
	tr, r := history(100_000)
	for v := uint32(1); v <= 4; v++ {
		view(tr, r, 100_000/8, v, 90)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view(tr, r, 100_000/8, uint32(5+i), 90)
	}
}

// BenchmarkKeyLookup looks keys up in the middle of a view: a 100k-tuple
// history with a view's worth of appends at a later version, every key
// settled once.
func BenchmarkKeyLookup(b *testing.B) {
	tr, r := history(100_000)
	for i := 0; i < 3584; i++ {
		tr.Append(uint64(r.Intn(100_000/8)), r.Uint64(), timestamp.Outer(1), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += tr.Key(uint64(i%(100_000/8)), func(uint64, timestamp.Time, int64) {})
	}
	if n == 0 {
		b.Fatal("no tuple visited")
	}
}
