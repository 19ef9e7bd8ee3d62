package dataflow

import (
	"fmt"
	"testing"
)

// labelGraph wires a small but representative dataflow — map/filter chains,
// a join, a min-reduce inside an Iterate loop, and a capture — over an edge
// input: the label-propagation core shared by WCC/BFS-style computations.
func labelGraph(workers int) (*Scope, *Input[KV[int, int]], *Capture[KV[int, int]]) {
	s := NewScope(workers)
	in, edges := NewInput[KV[int, int]](s)
	nodes := Distinct(FlatMap(edges, func(e KV[int, int], emit func(int)) {
		emit(e.K)
		emit(e.V)
	}))
	seeds := Map(nodes, func(n int) KV[int, int] { return KV[int, int]{n, n} })
	sym := FlatMap(edges, func(e KV[int, int], emit func(KV[int, int])) {
		emit(e)
		emit(KV[int, int]{e.V, e.K})
	})
	labels := Iterate(seeds, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
		msgs := JoinMap(x, sym, func(_ int, lbl int, dst int) KV[int, int] {
			return KV[int, int]{dst, lbl}
		})
		return ReduceMin(Concat(msgs, seeds))
	})
	return s, in, NewCapture(labels)
}

// resetTestEdges is a deterministic multi-version edge-update sequence: a
// path graph first, then edges flipping in and out across versions.
func resetTestEdges(v int) []Update[KV[int, int]] {
	switch v {
	case 0:
		ups := make([]Update[KV[int, int]], 0, 12)
		for i := 0; i < 12; i++ {
			ups = append(ups, Update[KV[int, int]]{KV[int, int]{i, i + 1}, 1})
		}
		return ups
	case 1:
		return []Update[KV[int, int]]{{KV[int, int]{6, 7}, -1}, {KV[int, int]{20, 21}, 1}}
	case 2:
		return []Update[KV[int, int]]{{KV[int, int]{6, 7}, 1}, {KV[int, int]{0, 20}, 1}}
	default:
		return nil
	}
}

// TestScopeResetStateEquivalence checks the core reset contract: after
// ResetState, re-feeding the same version sequence through the same scope
// produces the same per-version difference sets and result as both the
// first pass and a freshly built scope — across single- and multi-worker
// configurations.
func TestScopeResetStateEquivalence(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			run := func(s *Scope, in *Input[KV[int, int]], c *Capture[KV[int, int]]) ([]map[KV[int, int]]Diff, map[KV[int, int]]Diff) {
				diffs := make([]map[KV[int, int]]Diff, 3)
				for v := 0; v < 3; v++ {
					in.SendAt(uint32(v), resetTestEdges(v))
					s.Drain()
					s.Compact(uint32(v))
					diffs[v] = c.Diff()
				}
				return diffs, c.Result()
			}

			s, in, c := labelGraph(workers)
			firstDiffs, firstAt := run(s, in, c)

			s.ResetState()
			if s.IterCapHit.Load() {
				t.Fatal("IterCapHit survived reset")
			}
			for _, w := range s.WorkCounts() {
				if w != 0 {
					t.Fatalf("work counters survived reset: %v", s.WorkCounts())
				}
			}
			if res, n := c.Result(), c.DiffCount(); len(res) != 0 || n != 0 {
				t.Fatalf("capture survived reset: result %v, %d diffs", res, n)
			}
			resetDiffs, resetAt := run(s, in, c)

			fresh, fin, fc := labelGraph(workers)
			freshDiffs, freshAt := run(fresh, fin, fc)

			for v := range firstDiffs {
				if !equalDiffMaps(firstDiffs[v], resetDiffs[v]) {
					t.Fatalf("v%d: reset diff %v != first pass %v", v, resetDiffs[v], firstDiffs[v])
				}
				if !equalDiffMaps(firstDiffs[v], freshDiffs[v]) {
					t.Fatalf("v%d: fresh diff %v != first pass %v", v, freshDiffs[v], firstDiffs[v])
				}
			}
			if !equalDiffMaps(firstAt, resetAt) || !equalDiffMaps(firstAt, freshAt) {
				t.Fatalf("accumulated results diverge: first %v reset %v fresh %v", firstAt, resetAt, freshAt)
			}
		})
	}
}

// TestResetStateMidSequence pins that a reset scope restarts at version 0:
// feeding version 0 again after a run that ended at a later version does not
// trip the nondecreasing-version check.
func TestResetStateMidSequence(t *testing.T) {
	s, in, c := labelGraph(1)
	for v := 0; v < 3; v++ {
		in.SendAt(uint32(v), resetTestEdges(v))
		s.Drain()
		s.Compact(uint32(v))
	}
	s.ResetState()
	in.SendAt(0, resetTestEdges(0)) // would panic if the input cursor survived
	s.Drain()
	if n := c.DiffCount(); n == 0 {
		t.Fatal("no output at version 0 after reset")
	}
}

func equalDiffMaps[R comparable](a, b map[R]Diff) bool {
	if len(a) != len(b) {
		return false
	}
	for r, d := range a {
		if b[r] != d {
			return false
		}
	}
	return true
}
