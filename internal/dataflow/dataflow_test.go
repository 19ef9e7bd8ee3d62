package dataflow

import (
	"testing"
)

func TestConsolidate(t *testing.T) {
	b := &batch[int]{recs: []int{1, 1, 2, 2, 3}, diffs: []Diff{1, 2, 1, -1, 0}}
	b.consolidate(func(r int) uint64 { return uint64(r) }, new([]uint32))
	if len(b.recs) != 1 || b.recs[0] != 1 || len(b.diffs) != 1 || b.diffs[0] != 3 {
		t.Fatalf("consolidate = %v %v", b.recs, b.diffs)
	}
}

func TestMapFilterConcatNegate(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[int](s)
	doubled := Map(col, func(x int) int { return 2 * x })
	evens := Filter(doubled, func(x int) bool { return x%4 == 0 })
	both := Concat(doubled, Negate(evens))
	cap1 := NewCapture(both)

	in.SendAt(0, []Update[int]{{1, 1}, {2, 1}, {3, 1}})
	s.Drain()
	// doubled = {2,4,6}; evens = {4}; both = {2,4,6} - {4} = {2,6}
	got := cap1.Result()
	want := map[int]Diff{2: 1, 6: 1}
	if len(got) != len(want) || got[2] != 1 || got[6] != 1 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestFlatMap(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[int](s)
	out := FlatMap(col, func(x int, emit func(int)) {
		for i := 0; i < x; i++ {
			emit(x*10 + i)
		}
	})
	c := NewCapture(out)
	in.SendAt(0, []Update[int]{{2, 1}})
	s.Drain()
	got := c.Result()
	if len(got) != 2 || got[20] != 1 || got[21] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestJoinIncremental(t *testing.T) {
	s := NewScope(1)
	li, l := NewInput[KV[int, string]](s)
	ri, r := NewInput[KV[int, int]](s)
	joined := JoinMap(l, r, func(k int, a string, b int) KV[int, int] {
		return KV[int, int]{k, b * len(a)}
	})
	c := NewCapture(joined)

	li.SendAt(0, []Update[KV[int, string]]{{KV[int, string]{1, "ab"}, 1}, {KV[int, string]{2, "x"}, 1}})
	ri.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 10}, 1}})
	s.Drain()
	got := c.Result()
	if len(got) != 1 || got[KV[int, int]{1, 20}] != 1 {
		t.Fatalf("v0: got %v", got)
	}

	// Add a matching right record for key 2, remove key 1's left record.
	li.SendAt(1, []Update[KV[int, string]]{{KV[int, string]{1, "ab"}, -1}})
	ri.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{2, 7}, 1}})
	s.Drain()
	got = c.Result()
	if len(got) != 1 || got[KV[int, int]{2, 7}] != 1 {
		t.Fatalf("v1: got %v", got)
	}
	if n := c.DiffCount(); n != 2 {
		t.Fatalf("v1 diff count = %d, want 2", n)
	}
}

func TestJoinMultiplicities(t *testing.T) {
	s := NewScope(1)
	li, l := NewInput[KV[int, int]](s)
	ri, r := NewInput[KV[int, int]](s)
	joined := JoinMap(l, r, func(k, a, b int) int { return k*100 + a*10 + b })
	c := NewCapture(joined)

	li.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 1}, 2}})
	ri.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 2}, 3}})
	s.Drain()
	if got := c.Result(); got[112] != 6 {
		t.Fatalf("multiplicity product: got %v", got)
	}
}

func TestReduceMinAcrossVersions(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[KV[int, int]](s)
	mins := ReduceMin(col)
	c := NewCapture(mins)

	in.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 5}, 1}, {KV[int, int]{1, 3}, 1}, {KV[int, int]{2, 9}, 1}})
	s.Drain()
	got := c.Result()
	if got[KV[int, int]{1, 3}] != 1 || got[KV[int, int]{2, 9}] != 1 || len(got) != 2 {
		t.Fatalf("v0: got %v", got)
	}

	// Remove the minimum of key 1: falls back to 5.
	in.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{1, 3}, -1}})
	s.Drain()
	got = c.Result()
	if got[KV[int, int]{1, 5}] != 1 || len(got) != 2 {
		t.Fatalf("v1: got %v", got)
	}

	// Remove all of key 2: no output for it.
	in.SendAt(2, []Update[KV[int, int]]{{KV[int, int]{2, 9}, -1}})
	s.Drain()
	got = c.Result()
	if len(got) != 1 || got[KV[int, int]{1, 5}] != 1 {
		t.Fatalf("v2: got %v", got)
	}
}

func TestReduceCountAndSum(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[KV[int, int64]](s)
	counts := ReduceCount(col)
	sums := ReduceSum(col)
	cc := NewCapture(counts)
	cs := NewCapture(sums)

	in.SendAt(0, []Update[KV[int, int64]]{{KV[int, int64]{1, 10}, 1}, {KV[int, int64]{1, 20}, 2}})
	s.Drain()
	if got := cc.Result(); got[KV[int, int64]{1, 3}] != 1 {
		t.Fatalf("count: got %v", got)
	}
	if got := cs.Result(); got[KV[int, int64]{1, 50}] != 1 {
		t.Fatalf("sum: got %v", got)
	}

	in.SendAt(1, []Update[KV[int, int64]]{{KV[int, int64]{1, 20}, -1}})
	s.Drain()
	if got := cc.Result(); got[KV[int, int64]{1, 2}] != 1 {
		t.Fatalf("count v1: got %v", got)
	}
	if got := cs.Result(); got[KV[int, int64]{1, 30}] != 1 {
		t.Fatalf("sum v1: got %v", got)
	}
}

func TestDistinct(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[int](s)
	d := Distinct(col)
	c := NewCapture(d)
	in.SendAt(0, []Update[int]{{7, 3}, {8, 1}})
	s.Drain()
	got := c.Result()
	if got[7] != 1 || got[8] != 1 || len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	in.SendAt(1, []Update[int]{{7, -3}})
	s.Drain()
	got = c.Result()
	if len(got) != 1 || got[8] != 1 {
		t.Fatalf("v1: got %v", got)
	}
}

type edge struct{ src, dst uint32 }

// reachOracle computes forward reachability from src.
func reachOracle(edges map[edge]bool, src uint32) map[uint32]bool {
	adj := make(map[uint32][]uint32)
	for e := range edges {
		adj[e.src] = append(adj[e.src], e.dst)
	}
	seen := map[uint32]bool{src: true}
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// TestIterateReachability exercises the fixpoint loop differentially across
// versions against a from-scratch oracle.
func TestIterateReachability(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s := NewScope(workers)
		ei, ecol := NewInput[edge](s)
		ri, rcol := NewInput[uint32](s)
		edgesKeyed := Map(ecol, func(e edge) KV[uint32, uint32] { return KV[uint32, uint32]{e.src, e.dst} })

		reached := Iterate(rcol, func(x *Collection[uint32]) *Collection[uint32] {
			xk := Map(x, func(v uint32) KV[uint32, struct{}] { return KV[uint32, struct{}]{v, struct{}{}} })
			next := JoinMap(edgesKeyed, xk, func(_ uint32, dst uint32, _ struct{}) uint32 { return dst })
			return Distinct(Concat(next, rcol))
		})
		c := NewCapture(reached)

		cur := map[edge]bool{}
		versionEdges := [][]Update[edge]{
			{{edge{1, 2}, 1}, {edge{2, 3}, 1}, {edge{4, 5}, 1}},
			{{edge{3, 4}, 1}},                  // connect 4,5
			{{edge{2, 3}, -1}},                 // cut the chain
			{{edge{1, 5}, 1}, {edge{5, 3}, 1}}, // reconnect around
		}
		ri.SendOne(0, 1, 1)
		for v, ups := range versionEdges {
			for _, u := range ups {
				if u.D > 0 {
					cur[u.Rec] = true
				} else {
					delete(cur, u.Rec)
				}
			}
			ei.SendAt(uint32(v), ups)
			s.Drain()
			if pt, ok := s.minPendingTime(); ok {
				t.Fatalf("scope not quiescent after Drain: pending work at %v", pt)
			}

			got := c.Result()
			want := reachOracle(cur, 1)
			if len(got) != len(want) {
				t.Fatalf("workers=%d v%d: got %v want %v", workers, v, got, want)
			}
			for r := range want {
				if got[r] != 1 {
					t.Fatalf("workers=%d v%d: missing %d in %v", workers, v, r, got)
				}
			}
			s.Compact(uint32(v))
		}
		if s.IterCapHit.Load() {
			t.Fatal("iteration cap hit")
		}
	}
}

func TestIterateN(t *testing.T) {
	// Repeated doubling: start with {1}, body maps x -> x*2. After n
	// applications the accumulated result is {2^n}.
	for _, n := range []uint32{1, 2, 5} {
		s := NewScope(1)
		in, col := NewInput[int](s)
		out := IterateN(col, n, func(x *Collection[int]) *Collection[int] {
			doubled := Map(x, func(v int) KV[int, int] { return KV[int, int]{0, v * 2} })
			// Route through a reduce so the loop has a stateful operator.
			m := ReduceMin(doubled)
			return Map(m, func(kv KV[int, int]) int { return kv.V })
		})
		c := NewCapture(out)
		in.SendOne(0, 1, 1)
		s.Drain()
		got := c.Result()
		want := 1 << n
		if len(got) != 1 || got[want] != 1 {
			t.Fatalf("n=%d: got %v want {%d:1}", n, got, want)
		}
	}
}

func TestInputVersionOrderPanics(t *testing.T) {
	s := NewScope(1)
	in, _ := NewInput[int](s)
	in.SendOne(2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on decreasing version")
		}
	}()
	in.SendOne(1, 1, 1)
}

func TestCompactPreservesResults(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[KV[int, int]](s)
	mins := ReduceMin(col)
	c := NewCapture(mins)
	in.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{1, 5}, 1}})
	s.Drain()
	s.Compact(0)
	in.SendAt(1, []Update[KV[int, int]]{{KV[int, int]{1, 2}, 1}})
	s.Drain()
	s.Compact(1)
	in.SendAt(2, []Update[KV[int, int]]{{KV[int, int]{1, 2}, -1}})
	s.Drain()
	got := c.Result()
	if len(got) != 1 || got[KV[int, int]{1, 5}] != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestIterCapHit(t *testing.T) {
	s := NewScope(1)
	s.MaxIter = 4
	in, col := NewInput[int](s)
	// x -> x+1 never converges.
	out := Iterate(col, func(x *Collection[int]) *Collection[int] {
		keyed := Map(x, func(v int) KV[int, int] { return KV[int, int]{v, v} })
		m := ReduceMin(keyed)
		return Map(m, func(kv KV[int, int]) int { return kv.V + 1 })
	})
	NewCapture(out)
	in.SendOne(0, 0, 1)
	s.Drain()
	if !s.IterCapHit.Load() {
		t.Fatal("expected iteration cap to be hit")
	}
}

func TestWorkCounts(t *testing.T) {
	s := NewScope(2)
	in, col := NewInput[KV[int, int]](s)
	NewCapture(ReduceMin(col))
	ups := make([]Update[KV[int, int]], 0, 100)
	for i := 0; i < 100; i++ {
		ups = append(ups, Update[KV[int, int]]{KV[int, int]{i, i}, 1})
	}
	in.SendAt(0, ups)
	s.Drain()
	counts := s.WorkCounts()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no work recorded")
	}
	s.ResetWork()
	for _, c := range s.WorkCounts() {
		if c != 0 {
			t.Fatal("reset failed")
		}
	}
}
