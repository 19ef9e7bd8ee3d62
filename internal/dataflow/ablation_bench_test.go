package dataflow

import (
	"math/rand"
	"testing"
)

// buildWCCBench wires a WCC-like min-label dataflow and returns its input.
func buildWCCBench(workers int) (*Scope, *Input[edge]) {
	s := NewScope(workers)
	ei, ecol := NewInput[edge](s)
	adj := FlatMap(ecol, func(e edge, emit func(KV[uint32, uint32])) {
		emit(KV[uint32, uint32]{e.src, e.dst})
		emit(KV[uint32, uint32]{e.dst, e.src})
	})
	seeds := Distinct(FlatMap(ecol, func(e edge, emit func(KV[uint32, uint32])) {
		emit(KV[uint32, uint32]{e.src, e.src})
		emit(KV[uint32, uint32]{e.dst, e.dst})
	}))
	labels := Iterate(seeds, func(x *Collection[KV[uint32, uint32]]) *Collection[KV[uint32, uint32]] {
		msgs := JoinMap(x, adj, func(_ uint32, lab uint32, nbr uint32) KV[uint32, uint32] {
			return KV[uint32, uint32]{nbr, lab}
		})
		return ReduceMin(Concat(msgs, seeds))
	})
	NewCapture(labels)
	return s, ei
}

// BenchmarkCompactionAblation quantifies the trace-compaction design choice
// (DESIGN.md): the same 40-version differential WCC run with and without
// advancing the compaction frontier. Without compaction, per-key traces
// accumulate one generation of times per version and every reconsideration
// pays for the full history.
func BenchmarkCompactionAblation(b *testing.B) {
	for _, compact := range []bool{true, false} {
		b.Run(map[bool]string{true: "with-compaction", false: "no-compaction"}[compact], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCompactionWCC(compact)
			}
		})
	}
}

// BenchmarkWorkerScaling measures one differential WCC version drain at
// several worker counts (wall clock is bounded by physical cores; the
// work-split metric is what Figure 10 reports).
func BenchmarkWorkerScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4"}[workers], func(b *testing.B) {
			s, in := buildWCCBench(workers)
			r := rand.New(rand.NewSource(7))
			var ups []Update[edge]
			for j := 0; j < 20000; j++ {
				ups = append(ups, Update[edge]{edge{uint32(r.Intn(4000)), uint32(r.Intn(4000))}, 1})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.SendAt(uint32(i), ups)
				s.Drain()
				in.SendAt(uint32(i), negateUps(ups))
				s.Drain()
				s.Compact(uint32(i))
			}
		})
	}
}

func negateUps(ups []Update[edge]) []Update[edge] {
	out := make([]Update[edge], len(ups))
	for i, u := range ups {
		out[i] = Update[edge]{u.Rec, -u.D}
	}
	return out
}

// runCompactionWCC is the seeded 40-version WCC pipeline both the ablation
// benchmark and TestWorkCountPinned run.
func runCompactionWCC(compact bool) *Scope {
	s, in := buildWCCBench(1)
	r := rand.New(rand.NewSource(7))
	var ups []Update[edge]
	for j := 0; j < 4000; j++ {
		ups = append(ups, Update[edge]{edge{uint32(r.Intn(800)), uint32(r.Intn(800))}, 1})
	}
	in.SendAt(0, ups)
	s.Drain()
	if compact {
		s.Compact(0)
	}
	for v := uint32(1); v <= 40; v++ {
		var delta []Update[edge]
		for j := 0; j < 20; j++ {
			delta = append(delta, Update[edge]{edge{uint32(r.Intn(800)), uint32(r.Intn(800))}, 1})
		}
		in.SendAt(v, delta)
		s.Drain()
		if compact {
			s.Compact(v)
		}
	}
	return s
}

// TestWorkCountPinned holds the engine's work counter on the wcc run, with
// and without compaction, to a literal, so a change to what an operator
// counts, to how many entries a key's history holds, or to the times a key
// is evaluated at shows up as a moved number rather than a silent drift of
// the optimizer's cost signal. A key's entries depend only on its own
// updates and the frontier, so the count is that of the multisets
// themselves. One worker, because each Scope draws a fresh partition seed and
// the per-worker split differs run to run.
func TestWorkCountPinned(t *testing.T) {
	for _, c := range []struct {
		compact bool
		want    int64
	}{{true, 1499146}, {false, 1804633}} {
		if got := runCompactionWCC(c.compact).WorkCounts(); len(got) != 1 || got[0] != c.want {
			t.Fatalf("compact=%v: work counts %v, want [%d]", c.compact, got, c.want)
		}
	}
}
