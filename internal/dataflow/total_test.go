package dataflow

import (
	"math/rand"
	"strings"
	"testing"
)

// capturePair is a totally ordered operator's output and its general
// counterpart's, captured from the same inputs in the same scope.
type capturePair[R comparable] struct {
	name           string
	total, general *Capture[R]
}

func (p capturePair[R]) check(t *testing.T, step int, v uint32) {
	t.Helper()
	if got, want := p.total.Result(), p.general.Result(); !equalDiffMaps(got, want) {
		t.Fatalf("step %d (v%d): %s result %v, general %v", step, v, p.name, got, want)
	}
	if got, want := p.total.Diff(), p.general.Diff(); !equalDiffMaps(got, want) {
		t.Fatalf("step %d (v%d): %s diff %v, general %v", step, v, p.name, got, want)
	}
}

// FuzzTotalMatchesGeneral holds each totally ordered operator to its general
// counterpart: DistinctTotal to Distinct and CountTotal to ReduceCount over
// a stream whose counts may go negative, and JoinMapTotal to JoinMap both
// outside a loop and with a loop variable on its left, inside an Iterate
// body (min-label propagation over the edges). Versions bring inserts and
// deletes, records that cancel to zero and return, empty versions and
// skipped version numbers; the scope compacts after most versions and is
// reset at a random one, then runs on from version 0. After every Drain,
// every pair's Result and Diff must agree.
func FuzzTotalMatchesGeneral(f *testing.F) {
	f.Add(int64(1), uint8(12), false, uint8(255))
	f.Add(int64(2), uint8(15), true, uint8(6))
	f.Add(int64(3), uint8(9), false, uint8(4))
	f.Add(int64(4), uint8(14), true, uint8(0))
	f.Add(int64(5), uint8(11), false, uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, versions uint8, multi bool, resetAt uint8) {
		r := rand.New(rand.NewSource(seed))
		workers := 1
		if multi {
			workers = 3
		}
		s := NewScope(workers)
		in, recs := NewInput[KV[int, int]](s)
		ein, edges := NewInput[KV[int, int]](s)

		pairs := []capturePair[KV[int, int]]{
			{"DistinctTotal", NewCapture(DistinctTotal(recs)), NewCapture(Distinct(recs))},
		}
		pair := func(k, a, b int) KV[int, int] { return KV[int, int]{k, 10*a + b} }
		pairs = append(pairs, capturePair[KV[int, int]]{"JoinMapTotal",
			NewCapture(JoinMapTotal(edges, recs, pair)), NewCapture(JoinMap(edges, recs, pair))})
		seeds := Map(Distinct(Map(edges, func(e KV[int, int]) int { return e.K })), func(k int) KV[int, int] { return KV[int, int]{k, k} })
		propagate := func(join func(*Collection[KV[int, int]]) *Collection[KV[int, int]]) *Capture[KV[int, int]] {
			return NewCapture(Iterate(seeds, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
				return ReduceMin(Concat(join(x), seeds))
			}))
		}
		send := func(_ int, lab int, dst int) KV[int, int] { return KV[int, int]{dst, lab} }
		pairs = append(pairs, capturePair[KV[int, int]]{"JoinMapTotal in Iterate",
			propagate(func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] { return JoinMapTotal(x, edges, send) }),
			propagate(func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] { return JoinMap(x, edges, send) })})
		counts := capturePair[KV[int, int64]]{"CountTotal", NewCapture(CountTotal(recs)), NewCapture(ReduceCount(recs))}

		have := map[KV[int, int]]Diff{} // the edges, whose counts stay positive
		v := uint32(0)
		for i := 0; i < 1+int(versions)%16; i++ {
			if i == int(resetAt)%16 {
				s.ResetState()
				clear(have)
				v = 0
			}
			var ups, eups []Update[KV[int, int]]
			switch r.Intn(5) {
			case 0: // an empty version
			case 1: // a skipped version number
				v++
				fallthrough
			default:
				for range 1 + r.Intn(8) {
					// Counts of recs may cancel, return, and go below zero.
					ups = append(ups, Update[KV[int, int]]{KV[int, int]{r.Intn(5), r.Intn(3)}, Diff(r.Intn(5) - 2)})
				}
				for range r.Intn(6) {
					e, d := KV[int, int]{r.Intn(6), r.Intn(6)}, Diff(1)
					if have[e] > 0 && r.Intn(2) == 0 {
						d = -1
					}
					add(have, e, d)
					eups = append(eups, Update[KV[int, int]]{e, d})
				}
			}
			in.SendAt(v, ups)
			ein.SendAt(v, eups)
			s.Drain()
			if r.Intn(4) > 0 {
				s.Compact(v)
			}
			for _, p := range pairs {
				p.check(t, i, v)
			}
			counts.check(t, i, v)
			v++
		}
	})
}

// mustPanicNaming runs build's dataflow for a version in a one-worker scope
// (so a panic surfaces on the calling goroutine) and requires it to panic
// with a message naming op.
func mustPanicNaming(t *testing.T, op string, build func(in *Collection[KV[int, int]])) {
	t.Helper()
	s := NewScope(1)
	in, col := NewInput[KV[int, int]](s)
	build(col)
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, op) {
			t.Fatalf("panic %q, want one naming %s", msg, op)
		}
	}()
	in.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 2}, 1}, {KV[int, int]{2, 3}, 1}})
	s.Drain()
}

// step is a loop body whose variable changes at iteration 1: each label
// moves up by one, to at most 5.
func step(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
	return Map(x, func(kv KV[int, int]) KV[int, int] { return KV[int, int]{kv.K, min(kv.V+1, 5)} })
}

func TestDistinctTotalPanicsInsideIterate(t *testing.T) {
	mustPanicNaming(t, "DistinctTotal", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] { return DistinctTotal(step(x)) })
	})
}

func TestCountTotalPanicsInsideIterate(t *testing.T) {
	mustPanicNaming(t, "CountTotal", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
			return Map(CountTotal(step(x)), func(kv KV[int, int64]) KV[int, int] { return KV[int, int]{kv.K, int(kv.V)} })
		})
	})
}

// TestJoinMapTotalPanicsInsideIterate feeds JoinMapTotal's right input from
// the loop variable; its left input may carry any time.
func TestJoinMapTotalPanicsInsideIterate(t *testing.T) {
	mustPanicNaming(t, "JoinMapTotal", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
			return ReduceMin(JoinMapTotal(in, step(x), func(k, _, b int) KV[int, int] { return KV[int, int]{k, b} }))
		})
	})
}

// TestJoinSumPanicsInsideIterate feeds JoinSum's edges, then its base, from
// the loop variable; its x may carry any time.
func TestJoinSumPanicsInsideIterate(t *testing.T) {
	dst := func(dst int) int { return dst }
	widen := func(x *Collection[KV[int, int]]) *Collection[KV[int, int64]] {
		return Map(x, func(kv KV[int, int]) KV[int, int64] { return KV[int, int64]{kv.K, int64(kv.V)} })
	}
	narrow := func(x *Collection[KV[int, int64]]) *Collection[KV[int, int]] {
		return Map(x, func(kv KV[int, int64]) KV[int, int] { return KV[int, int]{kv.K, int(kv.V)} })
	}
	mustPanicNaming(t, "JoinSum's edge input", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
			return narrow(JoinSum(widen(x), step(x), widen(in), dst))
		})
	})
	mustPanicNaming(t, "JoinSum's base input", func(in *Collection[KV[int, int]]) {
		Iterate(in, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
			return narrow(JoinSum(widen(x), in, widen(step(x)), dst))
		})
	})
}

// TestTotalIndexKeepsPairsConsolidated holds a total index to a map of its
// accumulated counts over random batches, each a consolidated set of
// updates, across a reset: every key's pairs must be exactly its values
// whose counts do not cancel, each once, so the pairs a join visits never
// depend on how the updates were batched.
func TestTotalIndexKeepsPairsConsolidated(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ix totalIndex[int]
	want := map[KV[int, int]]Diff{}
	for round := range 2000 {
		if round == 1000 {
			ix.reset()
			clear(want)
		}
		ix.begin()
		batch := map[KV[int, int]]Diff{}
		for range r.Intn(16) {
			add(batch, KV[int, int]{r.Intn(2), r.Intn(6)}, Diff(r.Intn(3)-1))
		}
		for kv, d := range batch {
			if was := ix.add(uint32(kv.K), kv.V, d); was != want[kv] {
				t.Fatalf("round %d: %v was %d, want %d", round, kv, was, want[kv])
			}
			add(want, kv, d)
		}
		got := map[KV[int, int]]Diff{}
		for k := range 2 {
			for _, p := range ix.At(uint32(k)) {
				if _, dup := got[KV[int, int]{k, p.V}]; dup || p.D == 0 {
					t.Fatalf("round %d: key %d holds value %d twice or with count 0", round, k, p.V)
				}
				got[KV[int, int]{k, p.V}] = p.D
			}
		}
		if !equalDiffMaps(got, want) {
			t.Fatalf("round %d: index %v, want %v", round, got, want)
		}
	}
}
