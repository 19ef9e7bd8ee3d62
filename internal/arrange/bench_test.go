package arrange

import (
	"math/rand"
	"runtime"
	"testing"

	"graphsurge/internal/timestamp"
)

// history returns a trace holding n tuples over n/8 keys at version 0,
// advanced to canonical form, and the generator that built it.
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

// TestAdvanceSteadyStateAllocs checks that absorbing a small view costs no
// allocation proportional to the history: once warm, a 64-tuple view on a
// 100k-tuple trace allocates about what it does on a 10k-tuple one.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	perView := func(n int) float64 {
		tr, r := history(n)
		v := uint32(1)
		for ; v <= 8; v++ { // warm: both column sets exist, with growth slack
			view(tr, r, n/8, v, 64)
		}
		const views = 16
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for ; v <= 8+views; v++ {
			view(tr, r, n/8, v, 64)
		}
		runtime.ReadMemStats(&m1)
		if tr.Batches() != 1 || tr.Len() != n+64*(8+views) {
			t.Fatalf("trace of %d: %d batches, %d tuples", n, tr.Batches(), tr.Len())
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / views
	}
	small, big := perView(10_000), perView(100_000)
	t.Logf("bytes allocated per 64-tuple view: %.0f on 10k tuples, %.0f on 100k", small, big)
	// A 64-tuple view seals into one batch of 64 rows (about 3 KB of columns).
	const bound = 32 << 10
	if small > bound || big > bound || big > 2*small {
		t.Fatalf("Advance allocates with the history: %.0f B per view on 10k tuples, %.0f B on 100k (bound %d)", small, big, bound)
	}
}

// BenchmarkAdvanceSmallDelta is mutate.incremental's shape: a 100k-tuple
// history absorbing one 90-tuple view per iteration.
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

// BenchmarkSealScratch is disjoint.scratch's shape: one 50k-tuple view
// appended to an empty trace, every seal and geometric merge included.
func BenchmarkSealScratch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		tr := NewTrace[uint64, uint64]()
		for j := 0; j < 50_000; j++ {
			tr.Append(uint64(r.Intn(50_000/8)), uint64(j), timestamp.Time{Inner: uint32(r.Intn(4))}, 1)
		}
		if tr.Len() != 50_000 {
			b.Fatal("lost tuples")
		}
	}
}

// BenchmarkKeyLookup looks keys up in the layout a lookup usually meets in
// the middle of a view: one canonical batch, two small ones and a half-full
// stage.
func BenchmarkKeyLookup(b *testing.B) {
	tr, r := history(100_000)
	for i := 0; i < 3*stageThreshold+stageThreshold/2; i++ {
		tr.Append(uint64(r.Intn(100_000/8)), r.Uint64(), timestamp.Outer(1), 1)
	}
	if tr.Batches() != 3 {
		b.Fatalf("layout has %d batches, want 3", tr.Batches())
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

// TestWarmSealAllocs checks that a warm seal allocates nothing: a trace that
// keeps sealing full stages reads each out of its stage index through a
// recycled bucket column and writes it into a recycled column set.
func TestWarmSealAllocs(t *testing.T) {
	tr := NewTrace[uint64, uint64]()
	r := rand.New(rand.NewSource(2))
	seal := func() {
		for i := 0; i < stageThreshold; i++ { // the last Append seals
			tr.Append(uint64(r.Intn(64)), r.Uint64(), timestamp.Time{Inner: uint32(r.Intn(4))}, 1)
		}
		tr.recycle(tr.batches[0]) // keep the stack one batch deep: no merge runs
		tr.batches = tr.batches[:0]
	}
	seal()
	if n := testing.AllocsPerRun(100, seal); n != 0 {
		t.Fatalf("a warm seal of %d rows allocated %.1f times", stageThreshold, n)
	}
}
