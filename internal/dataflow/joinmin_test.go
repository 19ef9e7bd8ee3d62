package dataflow

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
// deletes, empty versions and skipped version numbers, and retractions of
// every source of a key's current minimum (or maximum), its roots at that
// value and the in-edges that step to it, which a later version restores;
// the scope compacts after most versions and is reset at a random one, then
// runs on from version 0. After every Drain every pair's Result and Diff
// must agree.
func FuzzJoinMinMatchesGeneral(f *testing.F) {
	f.Add(int64(1), uint8(12), false, uint8(255))
	f.Add(int64(2), uint8(15), true, uint8(6))
	f.Add(int64(3), uint8(9), false, uint8(4))
	f.Add(int64(4), uint8(14), true, uint8(0))
	f.Add(int64(5), uint8(11), false, uint8(7))
	f.Add(int64(6), uint8(13), true, uint8(9))
	f.Add(int64(8), uint8(15), false, uint8(255)) // retracts a minimum's sources, then restores them
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
		var heldE []Update[KV[int, arc]] // retracted sources a later version restores
		var heldR []Update[KV[int, int]]
		v := uint32(0)
		for i := 0; i < 1+int(versions)%16; i++ {
			if i == int(resetAt)%16 {
				s.ResetState()
				clear(haveE)
				clear(haveR)
				heldE, heldR = nil, nil
				v = 0
			}
			var eups []Update[KV[int, arc]]
			var rups, xups []Update[KV[int, int]]
			switch kind := r.Intn(6); kind {
			case 0: // an empty version
			case 5: // retract every source of a key's current value in the min or the max loop
				p, step := pairs[0], plus
				if r.Intn(2) == 0 {
					p, step = pairs[1], capped
				}
				val := map[int]int{}
				for kv := range p.total.Result() {
					val[kv.K] = kv.V
				}
				k := r.Intn(7)
				m, ok := val[k]
				if !ok {
					break
				}
				for e, c := range haveE {
					if u, ok := val[e.K]; ok && c > 0 && e.V.Dst == k && step(u, e.V) == m {
						eups = append(eups, Update[KV[int, arc]]{e, -c})
					}
				}
				if c := haveR[KV[int, int]{k, m}]; c > 0 {
					rups = append(rups, Update[KV[int, int]]{KV[int, int]{k, m}, -c})
				}
				for _, u := range eups {
					add(haveE, u.Rec, u.D)
					heldE = append(heldE, Update[KV[int, arc]]{u.Rec, -u.D})
				}
				for _, u := range rups {
					add(haveR, u.Rec, u.D)
					heldR = append(heldR, Update[KV[int, int]]{u.Rec, -u.D})
				}
			case 1: // a skipped version number
				v++
				fallthrough
			default:
				if r.Intn(2) == 0 { // restore what was retracted
					for _, u := range heldE {
						add(haveE, u.Rec, u.D)
					}
					for _, u := range heldR {
						add(haveR, u.Rec, u.D)
					}
					eups, rups = append(eups, heldE...), append(rups, heldR...)
					heldE, heldR = nil, nil
				}
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

// BenchmarkJoinMinInDegree measures what join-on-demand trades: a due key's
// evaluation walks all its in-edges and reads each source's labels, where
// the general reduce reads the key's stored messages. On a unit-weight
// (bfs-shaped) graph of 2 000 vertices and 20 000 edges whose in-degrees are
// skewed (every vertex has one in-edge, the rest go to Zipf-drawn
// destinations), one op is one version that inserts, or deletes again, one
// edge into each reachable vertex of an in-degree decile, from a source no
// nearer the root, so each is re-evaluated and none changes its distance. It runs for JoinMin and for ReduceMin(Concat(JoinMapTotal(…),
// roots)); indeg is the decile's mean in-degree.
func BenchmarkJoinMinInDegree(b *testing.B) {
	const n, m = 2000, 20000
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.5, 20, n-1)
	var graph []Update[KV[int, arc]]
	indeg := make([]int, n)
	out := make([][]int, n)
	for i := range m {
		dst := i
		if i >= n {
			dst = int(zipf.Uint64())
		}
		src := r.Intn(n)
		graph = append(graph, Update[KV[int, arc]]{KV[int, arc]{src, arc{dst, 1}}, 1})
		indeg[dst]++
		out[src] = append(out[src], dst)
	}
	dist := make([]int, n) // the bfs distances from vertex 0, -1 if unreachable
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	for q := []int{0}; len(q) > 0; q = q[1:] {
		for _, v := range out[q[0]] {
			if dist[v] < 0 {
				dist[v] = dist[q[0]] + 1
				q = append(q, v)
			}
		}
	}
	byDeg := make([]int, 0, n)
	for v := range n {
		if dist[v] > 0 {
			byDeg = append(byDeg, v)
		}
	}
	slices.SortStableFunc(byDeg, func(a, b int) int { return cmp.Compare(indeg[a], indeg[b]) })

	unit := plain(func(v int, _ arc) int { return v + 1 })
	for _, op := range []struct {
		name string
		loop func(x, roots *Collection[KV[int, int]], edges *Collection[KV[int, arc]]) *Collection[KV[int, int]]
	}{
		{"JoinMin", func(x, roots *Collection[KV[int, int]], edges *Collection[KV[int, arc]]) *Collection[KV[int, int]] {
			return JoinMin(x, edges, roots, unit)
		}},
		{"ReduceMin", func(x, roots *Collection[KV[int, int]], edges *Collection[KV[int, arc]]) *Collection[KV[int, int]] {
			return relaxGeneral(x, edges, roots, unit, ReduceMin[int, int])
		}},
	} {
		for d := range 10 {
			decile := byDeg[d*len(byDeg)/10 : (d+1)*len(byDeg)/10]
			var probe []Update[KV[int, arc]]
			sum := 0
			for _, v := range decile {
				u := r.Intn(n)
				for dist[u] < dist[v] {
					u = r.Intn(n)
				}
				probe = append(probe, Update[KV[int, arc]]{KV[int, arc]{u, arc{v, 1}}, 1})
				sum += indeg[v]
			}
			b.Run(fmt.Sprintf("%s/decile=%d", op.name, d), func(b *testing.B) {
				s := NewScope(1)
				ein, edges := NewInput[KV[int, arc]](s)
				rin, roots := NewInput[KV[int, int]](s)
				Iterate(roots, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] { return op.loop(x, roots, edges) })
				ein.SendAt(0, graph)
				rin.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{0, 0}, 1}})
				s.Drain()
				s.Compact(0)
				s.ResetWork()
				b.ReportAllocs()
				b.ResetTimer()
				for i := range b.N {
					for j := range probe {
						probe[j].D = 1 - 2*Diff(i%2)
					}
					ein.SendAt(uint32(i+1), probe)
					s.Drain()
					s.Compact(uint32(i + 1))
				}
				b.StopTimer()
				b.ReportMetric(float64(sum)/float64(len(probe)), "indeg")
				work := int64(0)
				for _, w := range s.WorkCounts() {
					work += w
				}
				b.ReportMetric(float64(work)/float64(b.N), "work/op")
			})
		}
	}
}

// TestRelaxWalksOnlyRetractions runs the sssp probe of
// TestRelaxSlabOccupancy at 1 and 3 workers and reads the node's walk
// counter. Version 0 walks every key. Versions 1–15 only insert edges, so
// every key's minimum stays or falls and is answered from the version's
// message differences: they must walk no in-edge. A last version retracts
// every in-edge that gives one key its distance: that key must be walked,
// with each of its other in-edges.
func TestRelaxWalksOnlyRetractions(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := newRelaxProbe(workers)
		walks := func() (n int) {
			for _, sh := range p.node.st {
				n, sh.walks = n+sh.walks, 0
			}
			return n
		}
		p.rin.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{0, 0}, 1}})
		have := map[KV[int, arc]]Diff{}
		for v, ups := range p.views {
			p.ein.SendAt(uint32(v), ups)
			p.s.Drain()
			p.s.Compact(uint32(v))
			for _, u := range ups {
				add(have, u.Rec, u.D)
			}
			switch w := walks(); {
			case v == 0 && w == 0:
				t.Fatalf("workers %d: version 0 walked no in-edge", workers)
			case v > 0 && w != 0:
				t.Errorf("workers %d: version %d only inserts, and walked %d in-edges", workers, v, w)
			}
		}

		// The distances from vertex 0 (Bellman-Ford), and a key with an
		// in-edge that does not give it its distance.
		dist := map[int]int{0: 0}
		for changed := true; changed; {
			changed = false
			for e := range have {
				if d, ok := dist[e.K]; ok {
					if old, ok := dist[e.V.Dst]; !ok || d+e.V.W < old {
						dist[e.V.Dst], changed = d+e.V.W, true
					}
				}
			}
		}
		k, other := -1, 0
		for v := 1; v < 1000 && k < 0; v++ {
			for e := range have {
				if d, ok := dist[e.K]; e.V.Dst == v && dist[v] > 0 && (!ok || d+e.V.W > dist[v]) {
					k = v
					break
				}
			}
		}
		var cut []Update[KV[int, arc]]
		for e, c := range have {
			if e.V.Dst != k {
				continue
			}
			if d, ok := dist[e.K]; ok && d+e.V.W == dist[k] {
				cut = append(cut, Update[KV[int, arc]]{e, -c})
			} else {
				other++
			}
		}
		p.ein.SendAt(uint32(len(p.views)), cut)
		p.s.Drain()
		if w := walks(); w < other {
			t.Errorf("workers %d: retracting key %d's %d minimum in-edges walked %d in-edges, want at least its %d others", workers, k, len(cut), w, other)
		}
	}
}

// TestJoinMinOldAnswerWorsens feeds JoinMin, outside any loop, an x that an
// upstream loop makes worse with each iteration: vertex 1's label climbs by
// 2 from 1 to 5, vertex 2's stays 4. In version 0 key 3 hears from vertex 1 alone,
// so its answer worsens with the iteration. Version 1 adds the edge from
// vertex 2: its message, at iteration 0, is worse than key 3's answer at
// (0, 0) but better than its answer at the last iteration, where the fused
// answer must be 4, as the general path's is, and be found without a walk.
func TestJoinMinOldAnswerWorsens(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s := NewScope(workers)
		iin, init := NewInput[KV[int, int]](s)
		ein, edges := NewInput[KV[int, arc]](s)
		_, roots := NewInput[KV[int, int]](s)
		xs := Iterate(init, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
			return ReduceMax(Map(x, func(kv KV[int, int]) KV[int, int] {
				if kv.V < 4 {
					kv.V += 2
				}
				return kv
			}))
		})
		plus := plain(func(v int, e arc) int { return v + e.W })
		p := capturePair[KV[int, int]]{"JoinMin over a worsening x",
			NewCapture(JoinMin(xs, edges, roots, plus)), NewCapture(relaxGeneral(xs, edges, roots, plus, ReduceMin[int, int]))}
		var node *relaxNode[int, int, int, arc]
		for _, n := range s.nodes {
			if rn, ok := n.(*relaxNode[int, int, int, arc]); ok {
				node = rn
			}
		}
		iin.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 1}, 1}, {KV[int, int]{2, 4}, 1}})
		ein.SendAt(0, []Update[KV[int, arc]]{{KV[int, arc]{1, arc{3, 0}}, 1}})
		s.Drain()
		s.Compact(0)
		p.check(t, 0, 0)
		for _, sh := range node.st {
			sh.walks = 0
		}
		ein.SendAt(1, []Update[KV[int, arc]]{{KV[int, arc]{2, arc{3, 0}}, 1}})
		s.Drain()
		p.check(t, 1, 1)
		if got := p.total.Result()[KV[int, int]{3, 4}]; got != 1 {
			t.Fatalf("workers %d: key 3's answer 4 has count %d, want 1: %v", workers, got, p.total.Result())
		}
		for _, sh := range node.st {
			if sh.walks != 0 {
				t.Fatalf("workers %d: version 1 only inserts, and walked %d in-edges", workers, sh.walks)
			}
		}
	}
}
