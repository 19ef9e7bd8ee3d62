package main

import (
	"time"

	"graphsurge/internal/arrange"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/timestamp"
)

// probes times calls into three layers no workload isolates, on inputs of
// the run's seed: the arrangement under similar.diff's tuples, the edge
// batch wire codec under the shared temporal graph, and the GVDL parser
// under create.ordered's 252-view statement. Only the traced run takes them.
func probes(e env) map[string]float64 {
	vals := map[string]float64{}
	g := temporalShared(e).g
	arrangeProbe(vals, g)
	codecProbe(vals, g)
	src := perturbationGVDL("probe", graphName, perturbation(e.seed, 10, 5))
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := gvdl.ParseAll(src); err != nil {
			return vals
		}
		ms = append(ms, millis(time.Since(t0)))
	}
	vals["gvdl.parse_ms"] = median(ms)
	return vals
}

// arrangeProbe replays the edge tuples of the similar collection into one
// arrange.Trace over its 16 outer versions, the way a dataflow operator's
// input arrangement sees them: append a version's additions, advance the
// compaction frontier, look every touched key up, and take snapshots.
func arrangeProbe(vals map[string]float64, g *graph.Graph) {
	ws := expanding(16)
	ts := g.EdgeProps.Cols[0].Ints
	tr := arrange.NewTrace[uint64, uint64]()
	var appendT, keyT, snapT time.Duration
	appends, lookups, snaps := 0, 0, 0
	sink := 0
	for v, w := range ws {
		var adds []int
		for e := range g.Srcs {
			if w.contains(ts[e]) && (v == 0 || !ws[v-1].contains(ts[e])) {
				adds = append(adds, e)
			}
		}
		t0 := time.Now()
		for _, e := range adds {
			tr.Append(g.Srcs[e], g.Dsts[e], timestamp.Outer(uint32(v)), 1)
		}
		tr.Advance(uint32(v))
		appendT += time.Since(t0)
		appends += len(adds)

		t0 = time.Now()
		for _, e := range adds {
			sink += tr.Key(g.Srcs[e], func(uint64, timestamp.Time, int64) {})
		}
		keyT += time.Since(t0)
		lookups += len(adds)

		t0 = time.Now()
		for i := 0; i < 64; i++ {
			sink += tr.Snapshot().Batches()
		}
		snapT += time.Since(t0)
		snaps += 64
	}
	if sink < 0 || appends == 0 {
		return
	}
	vals["arrange.append_ns"] = float64(appendT) / float64(appends)
	vals["arrange.key_ns"] = float64(keyT) / float64(lookups)
	vals["arrange.snapshot_ns"] = float64(snapT) / float64(snaps)
	vals["arrange.batches"] = float64(tr.Batches())
}

// codecProbe round-trips the whole graph as one edge batch through the
// binary codec the cluster ships shards in.
func codecProbe(vals map[string]float64, g *graph.Graph) {
	dur := g.EdgeProps.Cols[1].Ints
	batch := graph.MakeEdgeBatch(g.NumEdges(), func(i int) graph.Triple {
		return graph.Triple{Src: g.Srcs[i], Dst: g.Dsts[i], W: dur[i]}
	})
	const rounds = 20
	var enc, dec time.Duration
	var wire []byte
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		b, err := batch.MarshalBinary()
		enc += time.Since(t0)
		if err != nil {
			return
		}
		wire = b
		var back graph.EdgeBatch
		t0 = time.Now()
		err = back.UnmarshalBinary(wire)
		dec += time.Since(t0)
		if err != nil || back.Len() != batch.Len() {
			return
		}
	}
	mb := float64(len(wire)) * rounds / 1e6
	vals["graph.codec_encode_mb_s"] = mb / enc.Seconds()
	vals["graph.codec_decode_mb_s"] = mb / dec.Seconds()
	vals["graph.codec_bytes_per_edge"] = float64(len(wire)) / float64(batch.Len())
}
