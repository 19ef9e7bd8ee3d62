package dataflow

import (
	"math/rand"
	"testing"
)

// linearOps are the linear reducers, each with outputs widened to int64.
var linearOps = map[string]func(*Collection[KV[int, int64]]) *Collection[KV[int, int64]]{
	"sum":   ReduceSum[int],
	"count": ReduceCount[int, int64],
	"distinct": func(in *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
		return Map(distinctKeys(in), func(kv KV[int, struct{}]) KV[int, int64] { return KV[int, int64]{kv.K, 1} })
	},
}

// linearGeneral is the named linear reducer as a general Reduce, with its
// fold of n = Σ d and sum = Σ v·d written out over the key's consolidated
// values.
func linearGeneral(name string) func(*Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
	return func(in *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
		return Reduce(in, name, func(_ int, vals []VD[int64], emit func(int64)) {
			var n, sum int64
			for _, vd := range vals {
				n, sum = n+vd.D, sum+vd.V*vd.D
			}
			switch {
			case name == "sum" && n != 0:
				emit(sum)
			case name == "count" && n != 0:
				emit(n)
			case name == "distinct" && n > 0:
				emit(1)
			}
		})
	}
}

// FuzzLinearReduceMatchesGeneral holds ReduceSum, ReduceCount and
// distinctKeys to Reduce with the same fold written out: outside any loop,
// over a stream whose counts may go negative; inside IterateN in PageRank's
// shape, Concat(base, JoinMapTotal(x, edges)); and inside a fixpoint Iterate
// (reachability through distinct). It holds JoinSum to ReduceSum(Concat(base,
// JoinMapTotal(x, edges))) in the same two places, the loop's body dividing
// x by the out-degree first, as PageRank's does. Versions bring inserts and deletes, keys
// retracted to zero and later restored, empty versions and skipped version
// numbers; the scope compacts after most versions. At a random version the
// scope is reset and replays every version sent so far, from version 0, then
// runs on. After every Drain every pair's Result and Diff must agree.
func FuzzLinearReduceMatchesGeneral(f *testing.F) {
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
		in, recs := NewInput[KV[int, int]](s)
		ein, edges := NewInput[KV[int, int]](s)
		widen := func(kv KV[int, int]) KV[int, int64] { return KV[int, int64]{kv.K, int64(kv.V)} }
		vals := Map(recs, widen)
		base := Map(DistinctTotal(Map(edges, func(e KV[int, int]) int { return e.K })), func(k int) KV[int, int64] {
			return KV[int, int64]{k, int64(k%3 + 1)}
		})
		send := func(_ int, v int64, dst int) KV[int, int64] { return KV[int, int64]{dst, v%5 + int64(dst)} }
		reach := func(_ int, _ int64, dst int) KV[int, int64] { return KV[int, int64]{dst, 0} }

		var pairs []capturePair[KV[int, int64]]
		for _, name := range []string{"sum", "count", "distinct"} {
			op, general := linearOps[name], linearGeneral(name)
			pairs = append(pairs, capturePair[KV[int, int64]]{name, NewCapture(op(vals)), NewCapture(general(vals))})
			pagerank := func(reduce func(*Collection[KV[int, int64]]) *Collection[KV[int, int64]]) *Capture[KV[int, int64]] {
				return NewCapture(IterateN(base, 4, func(x *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
					return reduce(Concat(base, JoinMapTotal(x, edges, send)))
				}))
			}
			pairs = append(pairs, capturePair[KV[int, int64]]{name + " in IterateN", pagerank(op), pagerank(general)})
		}
		// JoinSum against the three operators it fuses: outside any loop,
		// where x's counts go negative, and in PageRank's shape, each
		// iteration's values divided by the out-degree before they are sent.
		dst := func(dst int) int { return dst }
		relay := func(_ int, v int64, dst int) KV[int, int64] { return KV[int, int64]{dst, v} }
		unfused := func(x *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
			return ReduceSum(Concat(base, JoinMapTotal(x, edges, relay)))
		}
		pairs = append(pairs, capturePair[KV[int, int64]]{"JoinSum",
			NewCapture(JoinSum(vals, edges, base, dst)), NewCapture(unfused(vals))})
		degrees := CountTotal(edges)
		pagerank := func(join func(*Collection[KV[int, int64]]) *Collection[KV[int, int64]]) *Capture[KV[int, int64]] {
			return NewCapture(IterateN(base, 4, func(x *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
				return join(JoinMapTotal(x, degrees, func(k int, v, deg int64) KV[int, int64] { return KV[int, int64]{k, v * 85 / 100 / deg} }))
			}))
		}
		pairs = append(pairs, capturePair[KV[int, int64]]{"JoinSum in IterateN", pagerank(func(x *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
			return JoinSum(x, edges, base, dst)
		}), pagerank(unfused)})

		fixpoint := func(reduce func(*Collection[KV[int, int64]]) *Collection[KV[int, int64]]) *Capture[KV[int, int64]] {
			return NewCapture(Iterate(base, func(x *Collection[KV[int, int64]]) *Collection[KV[int, int64]] {
				return reduce(Concat(base, JoinMapTotal(x, edges, reach)))
			}))
		}
		pairs = append(pairs, capturePair[KV[int, int64]]{"distinct in Iterate",
			fixpoint(linearOps["distinct"]), fixpoint(linearGeneral("distinct"))})

		// A version as sent: its number, its updates, and whether the scope
		// compacted after it.
		type version struct {
			v          uint32
			ups, eups  []Update[KV[int, int]]
			compaction bool
		}
		var log []version
		run := func(i int, ver version) {
			in.SendAt(ver.v, ver.ups)
			ein.SendAt(ver.v, ver.eups)
			s.Drain()
			if ver.compaction {
				s.Compact(ver.v)
			}
			for _, p := range pairs {
				p.check(t, i, ver.v)
			}
		}
		have := map[KV[int, int]]Diff{} // the records, whose counts a key retraction zeroes
		edge := map[KV[int, int]]Diff{} // the edges, whose counts stay positive
		gone := map[int][]Update[KV[int, int]]{}
		v := uint32(0)
		for i := 0; i < 1+int(versions)%16; i++ {
			if i == int(resetAt)%16 {
				s.ResetState()
				for j, ver := range log {
					run(j, ver)
				}
			}
			ver := version{compaction: r.Intn(4) > 0}
			switch r.Intn(6) {
			case 0: // an empty version
			case 1: // a skipped version number
				v++
				fallthrough
			default:
				for range 1 + r.Intn(8) {
					// A count may go below zero.
					kv, d := KV[int, int]{r.Intn(5), r.Intn(4)}, Diff(r.Intn(4)-1)
					add(have, kv, d)
					ver.ups = append(ver.ups, Update[KV[int, int]]{kv, d})
				}
				if k := r.Intn(5); r.Intn(3) == 0 {
					if back, ok := gone[k]; ok { // restore a retracted key
						for _, u := range back {
							add(have, u.Rec, u.D)
						}
						ver.ups = append(ver.ups, back...)
						delete(gone, k)
					} else { // retract a key to zero
						var back []Update[KV[int, int]]
						for val := range 4 {
							if kv := (KV[int, int]{k, val}); have[kv] != 0 {
								back = append(back, Update[KV[int, int]]{kv, have[kv]})
								ver.ups = append(ver.ups, Update[KV[int, int]]{kv, -have[kv]})
								delete(have, kv)
							}
						}
						gone[k] = back
					}
				}
				for range r.Intn(6) {
					e, d := KV[int, int]{r.Intn(6), r.Intn(6)}, Diff(1)
					if edge[e] > 0 && r.Intn(2) == 0 {
						d = -1
					}
					add(edge, e, d)
					ver.eups = append(ver.eups, Update[KV[int, int]]{e, d})
				}
			}
			ver.v = v
			log = append(log, ver)
			run(i, ver)
			v++
		}
	})
}
