package dataflow

import (
	"math/rand"
	"runtime"
	"testing"
)

// exchangeHop wires one hop of every kind of exchange — a fused Map, a join's
// two keyed inputs and output, a reduce's keyed input and output — over
// nodes vertices, each labelled with itself, and returns a function that runs
// one round of size fresh edges.
func exchangeHop(nodes, size int, view bool) (round func(v uint32)) {
	s := NewScope(1)
	ei, ecol := NewInput[edge](s)
	li, lcol := NewInput[KV[uint32, uint32]](s)
	keyed := Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.dst} })
	msgs := JoinMap(lcol, keyed, func(_ uint32, lab uint32, dst uint32) KV[uint32, uint32] {
		return KV[uint32, uint32]{dst, lab}
	})
	ReduceMin(msgs)

	labels := make([]Update[KV[uint32, uint32]], nodes)
	for i := range labels {
		labels[i] = Update[KV[uint32, uint32]]{KV[uint32, uint32]{uint32(i), uint32(i)}, 1}
	}
	return rounds(s, ei, size, view, func(r *rand.Rand) edge {
		return edge{uint32(r.Intn(nodes)), uint32(r.Intn(nodes))}
	}, func() { li.SendAt(0, labels) })
}

// rounds returns a function that runs one round of size fresh records from
// gen through in. A view round is a pooled replica's next scratch view:
// reset, then atZero and the records at version 0. A version round is one
// more version of a differential run: the records in, the last round's out,
// so arrangement state stays bounded.
func rounds[R comparable](s *Scope, in *Input[R], size int, view bool, gen func(*rand.Rand) R, atZero func()) func(v uint32) {
	r := rand.New(rand.NewSource(11))
	ups := make([]Update[R], 2*size)
	return func(v uint32) {
		for i := 0; i < size; i++ {
			ups[size+i] = Update[R]{ups[i].Rec, -ups[i].D}
			ups[i] = Update[R]{gen(r), 1}
		}
		if view {
			s.ResetState()
			v = 0
		}
		if v == 0 {
			atZero()
			in.SendAt(0, ups[:size]) // nothing to take out yet
		} else {
			in.SendAt(v, ups)
		}
		s.Drain()
		s.Compact(v)
	}
}

// warmRounds runs a few rounds to warm an exchangeHop (traces settled,
// queues and scratch grown), then n more, and returns the bytes allocated per
// input delta of those.
func warmRounds(round func(v uint32), deltas, n int) float64 {
	v := uint32(0)
	for ; v < 6; v++ {
		round(v)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for ; v < uint32(6+n); v++ {
		round(v)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n*deltas)
}

// TestExchangeSteadyStateAllocs pins the bytes a delta costs on its way
// through a warm Map → JoinMap → ReduceMin round. Between the views of a
// reset scope every column is recycled, the reduce's key index, time slab and
// schedule included, so a view round allocates next to nothing (49 B per
// delta while the reduce kept per-key heap objects and a dirty-key map per
// time). A differential run keeps its exchange columns from version to
// version (Scope.release), so a version round allocates next to nothing too
// (191 B per delta while Compact let the columns go at each version end). The
// row-form exchange spent over 700 bytes on either: a copy, a map entry and a
// queue slot per delta per hop.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	const nodes, size = 2000, 4000
	perView := warmRounds(exchangeHop(nodes, size, true), size, 20)
	perVersion := warmRounds(exchangeHop(nodes, size, false), 2*size, 20)
	t.Logf("bytes allocated per input delta: %.1f in a view round, %.1f in a version round", perView, perVersion)
	if perView > 16 || perVersion > 16 {
		t.Fatalf("a warm exchange round allocates %.1f B per delta between views (want at most 16), %.1f B between versions (want at most 16)", perView, perVersion)
	}
}

// BenchmarkExchangeHop is one warm round through map → join → reduce, as a
// reset scope's next view and as a differential run's next version.
func BenchmarkExchangeHop(b *testing.B) {
	for _, view := range []bool{true, false} {
		b.Run(map[bool]string{true: "view", false: "version"}[view], func(b *testing.B) {
			benchRounds(b, exchangeHop(2000, 4000, view))
		})
	}
}

// BenchmarkReduce is one warm round through a reduce alone: a ReduceMin,
// which arranges its input, and a ReduceSum, which keeps one (time, n, Σ)
// row per key and time. Each runs in two shapes: many small keys (a few
// values each, like vertex labels) and a few hub keys (hundreds of values
// each, like a high-degree vertex's messages), and each as a reset scope's
// next view and as a differential run's next version.
func BenchmarkReduce(b *testing.B) {
	for _, shape := range []struct {
		name       string
		keys, vals int
	}{{"small-keys", 4000, 4}, {"hub-keys", 8, 2000}} {
		for _, view := range []bool{true, false} {
			name := shape.name + map[bool]string{true: "/view", false: "/version"}[view]
			b.Run("min/"+name, func(b *testing.B) {
				s := NewScope(1)
				in, col := NewInput[KV[uint32, uint32]](s)
				ReduceMin(col)
				benchRounds(b, rounds(s, in, 4000, view, func(r *rand.Rand) KV[uint32, uint32] {
					return KV[uint32, uint32]{uint32(r.Intn(shape.keys)), uint32(r.Intn(shape.vals))}
				}, func() {}))
			})
			b.Run("sum/"+name, func(b *testing.B) {
				s := NewScope(1)
				in, col := NewInput[KV[uint32, int64]](s)
				ReduceSum(col)
				benchRounds(b, rounds(s, in, 4000, view, func(r *rand.Rand) KV[uint32, int64] {
					return KV[uint32, int64]{uint32(r.Intn(shape.keys)), int64(r.Intn(shape.vals))}
				}, func() {}))
			})
		}
	}
}

// benchRounds times warm rounds: a few to grow what a round recycles, then
// b.N more.
func benchRounds(b *testing.B, round func(v uint32)) {
	v := uint32(0)
	for ; v < 6; v++ {
		round(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(v + uint32(i))
	}
}
