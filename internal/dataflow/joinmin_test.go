package dataflow

import (
	"math/rand"
	"testing"
)

// arc is an edge's value in these tests: its destination and weight.
type arc struct{ Dst, W int }

// tagged is a label at a vertex, one of two per vertex (MPSP's shape).
type tagged struct {
	V int
	T uint8
}

// plain is the Relax of one label per vertex, stepping by f.
func plain(f func(v int, e arc) int) Relax[int, int, int, arc] {
	return Relax[int, int, int, arc]{
		Vertex: func(k int) int { return k },
		At:     func(_ int, n int) int { return n },
		Dst:    func(e arc) int { return e.Dst },
		Step:   f,
	}
}

// relaxGeneral is what JoinMin and JoinMax fuse: the join of x, re-keyed by
// vertex, with the edges, then reduce over the messages and the roots.
func relaxGeneral[K comparable](x *Collection[KV[K, int]], edges *Collection[KV[int, arc]], roots *Collection[KV[K, int]],
	r Relax[K, int, int, arc], reduce func(*Collection[KV[K, int]]) *Collection[KV[K, int]],
) *Collection[KV[K, int]] {
	byVertex := Map(x, func(kv KV[K, int]) KV[int, KV[K, int]] { return KV[int, KV[K, int]]{r.Vertex(kv.K), kv} })
	msgs := JoinMapTotal(byVertex, edges, func(_ int, kv KV[K, int], e arc) KV[K, int] {
		return KV[K, int]{r.At(kv.K, r.Dst(e)), r.Step(kv.V, e)}
	})
	return reduce(Concat(msgs, roots))
}

// loopPair captures a fused relaxation and its general counterpart, each to
// fixpoint inside an Iterate over the same roots and edges.
func loopPair[K comparable](name string, roots *Collection[KV[K, int]], edges *Collection[KV[int, arc]],
	r Relax[K, int, int, arc], dir int,
) capturePair[KV[K, int]] {
	fused, reduce := JoinMin[K, int, int, arc], ReduceMin[K, int]
	if dir > 0 {
		fused, reduce = JoinMax[K, int, int, arc], ReduceMax[K, int]
	}
	return capturePair[KV[K, int]]{name,
		NewCapture(Iterate(roots, func(x *Collection[KV[K, int]]) *Collection[KV[K, int]] { return fused(x, edges, roots, r) })),
		NewCapture(Iterate(roots, func(x *Collection[KV[K, int]]) *Collection[KV[K, int]] {
			return relaxGeneral(x, edges, roots, r, reduce)
		}))}
}

// FuzzJoinMinMatchesGeneral holds JoinMin and JoinMax to ReduceMin and
// ReduceMax over Concat(JoinMapTotal(…), roots): inside Iterate with one
// label per vertex (min with non-negative weights, max with values capped so
// it converges), inside Iterate with two tagged labels per vertex, and
// outside any loop with an x whose counts cancel and go negative. Versions
// bring edge inserts and deletes with parallel edges, root inserts and
// deletes, empty versions and skipped version numbers; the scope compacts
// after most versions and is reset at a random one, then runs on from
// version 0. After every Drain every pair's Result and Diff must agree.
func FuzzJoinMinMatchesGeneral(f *testing.F) {
	f.Add(int64(1), uint8(12), false, uint8(255))
	f.Add(int64(2), uint8(15), true, uint8(6))
	f.Add(int64(3), uint8(9), false, uint8(4))
	f.Add(int64(4), uint8(14), true, uint8(0))
	f.Add(int64(5), uint8(11), false, uint8(7))
	f.Add(int64(6), uint8(13), true, uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, versions uint8, multi bool, resetAt uint8) {
		r := rand.New(rand.NewSource(seed))
		workers := 1
		if multi {
			workers = 3
		}
		s := NewScope(workers)
		ein, edges := NewInput[KV[int, arc]](s)
		rin, roots := NewInput[KV[int, int]](s)
		xin, xs := NewInput[KV[int, int]](s)

		plus := func(v int, e arc) int { return v + e.W }
		capped := func(v int, e arc) int { return min(v+e.W, 12) }
		pairs := []capturePair[KV[int, int]]{
			loopPair("JoinMin in Iterate", roots, edges, plain(plus), -1),
			loopPair("JoinMax in Iterate", roots, edges, plain(capped), 1),
			{"JoinMin outside a loop", NewCapture(JoinMin(xs, edges, roots, plain(plus))),
				NewCapture(relaxGeneral(xs, edges, roots, plain(plus), ReduceMin[int, int]))},
		}
		troots := FlatMap(roots, func(kv KV[int, int], emit func(KV[tagged, int])) {
			emit(KV[tagged, int]{tagged{kv.K, 0}, kv.V})
			if kv.K%2 == 0 {
				emit(KV[tagged, int]{tagged{kv.K, 1}, 5 - kv.V})
			}
		})
		tags := loopPair("JoinMin in Iterate, tagged", troots, edges, Relax[tagged, int, int, arc]{
			Vertex: func(k tagged) int { return k.V },
			At:     func(k tagged, n int) tagged { return tagged{n, k.T} },
			Dst:    func(e arc) int { return e.Dst },
			Step:   plus,
		}, -1)

		haveE := map[KV[int, arc]]Diff{} // counts stay positive: a graph with parallel edges
		haveR := map[KV[int, int]]Diff{}
		v := uint32(0)
		for i := 0; i < 1+int(versions)%16; i++ {
			if i == int(resetAt)%16 {
				s.ResetState()
				clear(haveE)
				clear(haveR)
				v = 0
			}
			var eups []Update[KV[int, arc]]
			var rups, xups []Update[KV[int, int]]
			switch r.Intn(5) {
			case 0: // an empty version
			case 1: // a skipped version number
				v++
				fallthrough
			default:
				for range r.Intn(8) {
					e, d := KV[int, arc]{r.Intn(7), arc{r.Intn(7), r.Intn(4)}}, Diff(1)
					if haveE[e] > 0 && r.Intn(3) == 0 {
						d = -1
					}
					add(haveE, e, d)
					eups = append(eups, Update[KV[int, arc]]{e, d})
				}
				for range r.Intn(3) {
					k, d := KV[int, int]{r.Intn(7), r.Intn(6)}, Diff(1)
					if haveR[k] > 0 && r.Intn(2) == 0 {
						d = -1
					}
					add(haveR, k, d)
					rups = append(rups, Update[KV[int, int]]{k, d})
				}
				for range r.Intn(4) {
					xups = append(xups, Update[KV[int, int]]{KV[int, int]{r.Intn(7), r.Intn(6)}, Diff(r.Intn(5) - 2)})
				}
			}
			ein.SendAt(v, eups)
			rin.SendAt(v, rups)
			xin.SendAt(v, xups)
			s.Drain()
			if r.Intn(4) > 0 {
				s.Compact(v)
			}
			for _, p := range pairs {
				p.check(t, i, v)
			}
			tags.check(t, i, v)
			v++
		}
	})
}

// TestJoinMinPanicsOnLoopInputs feeds JoinMin's edges, and then JoinMax's
// roots, from the loop variable: both must be upstream of every loop.
func TestJoinMinPanicsOnLoopInputs(t *testing.T) {
	same := Relax[int, int, int, int]{
		Vertex: func(k int) int { return k },
		At:     func(_ int, n int) int { return n },
		Dst:    func(e int) int { return e },
		Step:   func(v int, _ int) int { return v },
	}
	mustPanicNaming(t, "JoinMin's edge input", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] { return JoinMin(x, step(x), in, same) })
	})
	mustPanicNaming(t, "JoinMax's root input", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] { return JoinMax(x, in, step(x), same) })
	})
}
