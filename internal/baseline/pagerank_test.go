package baseline

import (
	"math/rand"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
)

// prOracle recomputes the fixed-point PageRank from scratch with the exact
// arithmetic of analytics.PageRank.
func prOracle(edges map[graph.Triple]int64, iters int) map[uint64]int64 {
	verts := make(map[uint64]bool)
	deg := make(map[uint64]int64)
	for e, m := range edges {
		verts[e.Src], verts[e.Dst] = true, true
		deg[e.Src] += m
	}
	rank := make(map[uint64]int64, len(verts))
	for v := range verts {
		rank[v] = analytics.PRScale
	}
	for i := 0; i < iters; i++ {
		next := make(map[uint64]int64, len(verts))
		for v := range verts {
			next[v] = base
		}
		for e, m := range edges {
			next[e.Dst] += rank[e.Src] * 85 / 100 / deg[e.Src] * m
		}
		rank = next
	}
	return rank
}

func TestIncrementalPRMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := NewIncrementalPR(6)
	cur := make(map[graph.Triple]int64)

	for step := 0; step < 25; step++ {
		var adds, dels []graph.Triple
		for i := 0; i < 10; i++ {
			e := graph.Triple{Src: uint64(r.Intn(20)), Dst: uint64(r.Intn(20)), W: 1}
			if r.Intn(3) == 0 && cur[e] > 0 {
				cur[e]--
				if cur[e] == 0 {
					delete(cur, e)
				}
				dels = append(dels, e)
			} else {
				cur[e]++
				adds = append(adds, e)
			}
		}
		p.Update(adds, dels)
		got := p.Ranks()
		want := prOracle(cur, 6)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d ranks, oracle %d", step, len(got), len(want))
		}
		for v, rk := range want {
			if got[v] != rk {
				t.Fatalf("step %d: vertex %d = %d, oracle %d", step, v, got[v], rk)
			}
		}
	}
}

func TestIncrementalPRMatchesDifferentialEngine(t *testing.T) {
	// The specialized maintainer and the black-box differential engine
	// produce bit-identical ranks.
	g := datagen.Social(datagen.SocialConfig{Nodes: 150, Edges: 1200, Seed: 5})
	all := make([]graph.Triple, g.NumEdges())
	for i := range all {
		all[i] = g.Triple(i, -1)
	}
	p := NewIncrementalPR(8)
	inst, err := analytics.NewInstance(analytics.PageRank{Iterations: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Update(all[:1000], nil)
	inst.Step(graph.NewEdgeBatch(all[:1000]), nil)
	p.Update(all[1000:], all[:50])
	inst.Step(graph.NewEdgeBatch(all[1000:]), graph.NewEdgeBatch(all[:50]))

	want := make(map[uint64]int64)
	for vv, d := range inst.Results() {
		if d != 1 {
			t.Fatalf("multiplicity %d", d)
		}
		want[vv.V] = vv.Val
	}
	got := p.Ranks()
	if len(got) != len(want) {
		t.Fatalf("%d ranks vs engine %d", len(got), len(want))
	}
	for v, rk := range want {
		if got[v] != rk {
			t.Fatalf("vertex %d: baseline %d, engine %d", v, got[v], rk)
		}
	}
}

// BenchmarkGraphBoltStylePR reproduces the §7.5 comparison shape: PageRank
// maintained with algorithm-specific incremental code vs the black-box
// differential engine, over a stream of small edge deltas. GraphBolt's
// paper (and ours) expect the specialized maintainer to win by roughly an
// order of magnitude.
func BenchmarkGraphBoltStylePR(b *testing.B) {
	g := datagen.Social(datagen.SocialConfig{Nodes: 2_000, Edges: 20_000, Seed: 6})
	all := make([]graph.Triple, g.NumEdges())
	for i := range all {
		all[i] = g.Triple(i, -1)
	}
	base, deltas := all[:19_000], all[19_000:]

	b.Run("graphbolt-style", func(b *testing.B) {
		p := NewIncrementalPR(10)
		p.Update(base, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := deltas[i%len(deltas)]
			p.Update([]graph.Triple{e}, nil)
			p.Update(nil, []graph.Triple{e})
		}
	})
	b.Run("differential", func(b *testing.B) {
		inst, err := analytics.NewInstance(analytics.PageRank{Iterations: 10}, 1)
		if err != nil {
			b.Fatal(err)
		}
		inst.Step(graph.NewEdgeBatch(base), nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := deltas[i%len(deltas)]
			inst.Step(graph.NewEdgeBatch([]graph.Triple{e}), nil)
			inst.Step(nil, graph.NewEdgeBatch([]graph.Triple{e}))
		}
	})
}
