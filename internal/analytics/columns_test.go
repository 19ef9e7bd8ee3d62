package analytics

import (
	"cmp"
	"maps"
	"slices"
	"testing"

	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
)

// columnsProbe outputs what the Instance feeds its vertex and degree inputs:
// each vertex as (v, −1) when verts is set, each source's out-degree as
// (v, d) when degs is set.
type columnsProbe struct{ verts, degs bool }

func (columnsProbe) Name() string { return "columns-probe" }

func (c columnsProbe) Build(b *Builder) {
	var outs []*dataflow.Collection[VertexValue]
	if c.verts {
		outs = append(outs, dataflow.Map(b.nodes(), func(v uint64) VertexValue { return VertexValue{V: v, Val: -1} }))
	}
	if c.degs {
		outs = append(outs, dataflow.Map(b.outDegrees(), func(kv degree) VertexValue { return VertexValue{V: kv.K, Val: kv.V} }))
	}
	b.Output(dataflow.Concat(outs...))
}

// columnsReference is what a probe must output over the accumulated edge
// multiset: every vertex with an incident edge, and every source's nonzero
// out-degree.
func columnsReference(c columnsProbe, acc map[graph.Triple]int) map[VertexValue]int64 {
	inc, out := map[uint64]int{}, map[uint64]int{}
	for e, n := range acc {
		inc[e.Src] += n
		inc[e.Dst] += n
		out[e.Src] += n
	}
	want := map[VertexValue]int64{}
	for v, n := range inc {
		if c.verts && n > 0 {
			want[VertexValue{V: v, Val: -1}] = 1
		}
		if c.degs && out[v] != 0 {
			want[VertexValue{V: v, Val: int64(out[v])}] = 1
		}
	}
	return want
}

// FuzzVertexColumnsMatchReference holds the vertex set and the out-degrees
// the Instance counts where the edges enter to a naive map over the
// accumulated edge multiset, after every step, at 1, 2 and 3 workers, for a
// computation that asks for both inputs and for one that asks for each. The
// bytes decode to steps over 8 nodes: 0b0wdddsss adds edge sss→ddd of weight
// 1+w (a multi-edge when repeated), 0b10kkkkkk deletes the k-th edge (mod
// their number) present before the step and not yet deleted in it, and
// 0b11xxxxxx ends the step, and also resets every runner and the reference
// when its low two bits are 3. A step may so delete a vertex's last edge and
// add it again.
func FuzzVertexColumnsMatchReference(f *testing.F) {
	const step, reset = 0xc0, 0xc3
	edge := func(src, dst, w byte) byte { return (w-1)<<6 | dst<<3 | src }
	f.Add([]byte{edge(1, 2, 1), edge(1, 2, 1), edge(1, 3, 2), step, 0x80, step, 0x80, 0x81, step, edge(1, 2, 1), step})
	f.Add([]byte{edge(0, 1, 1), edge(2, 2, 1), step, 0x80, edge(0, 1, 1), edge(0, 4, 1), step, 0x80, 0x80, step})
	f.Add([]byte{edge(5, 6, 1), edge(6, 5, 2), step, reset, edge(5, 7, 1), step, 0x81, edge(5, 6, 1), step})
	f.Add([]byte{edge(3, 4, 1), step, edge(3, 5, 1), edge(3, 6, 1), 0x80, step, edge(4, 3, 1), 0x82, 0x81, step, reset, reset, edge(3, 4, 1), step})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, probe := range []columnsProbe{{true, true}, {true, false}, {false, true}} {
			var runners []*Instance
			for workers := 1; workers <= 3; workers++ {
				inst, err := NewInstance(probe, workers)
				if err != nil {
					t.Fatal(err)
				}
				runners = append(runners, inst)
			}
			acc := map[graph.Triple]int{}
			var adds, dels []graph.Triple
			for i, c := range data {
				switch {
				case c < 0x80:
					adds = append(adds, graph.Triple{Src: uint64(c & 7), Dst: uint64(c >> 3 & 7), W: 1 + int64(c>>6)})
				case c < step:
					// The edges present before the step, less those it deletes.
					left := map[graph.Triple]int{}
					for e, n := range acc {
						left[e] = n
					}
					for _, e := range dels {
						left[e]--
					}
					var cands []graph.Triple
					for e, n := range left {
						for ; n > 0; n-- {
							cands = append(cands, e)
						}
					}
					if len(cands) > 0 {
						slices.SortFunc(cands, func(a, b graph.Triple) int {
							return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.W, b.W))
						})
						dels = append(dels, cands[int(c&63)%len(cands)])
					}
				default:
					for _, e := range adds {
						acc[e]++
					}
					for _, e := range dels {
						if acc[e]--; acc[e] == 0 {
							delete(acc, e)
						}
					}
					want := columnsReference(probe, acc)
					for _, inst := range runners {
						inst.Step(graph.NewEdgeBatch(adds), graph.NewEdgeBatch(dels))
						if got := inst.Results(); !maps.Equal(got, want) {
							t.Fatalf("%+v, %d workers, byte %d: got %v, want %v", probe, inst.scope.Workers(), i, got, want)
						}
					}
					adds, dels = adds[:0], dels[:0]
					if c == reset {
						clear(acc)
						for _, inst := range runners {
							if err := inst.Reset(probe); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	})
}
