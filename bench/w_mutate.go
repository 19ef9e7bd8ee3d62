package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
)

// mutateInst is mutate.incremental: writes beside reads on a disk-backed
// engine. Each round commits a small mutation batch (journalled, with every
// view of the rolling collection maintained before the reply) and then asks
// for wcc on the engine's warm incremental replica.
type mutateInst struct {
	sc     scale
	csv    *csvGraph
	eng    *core.Engine
	sess   *core.Session
	load   time.Duration
	wins   []window
	loaded int // edges in the CSV; the rest of the stream arrives as inserts

	r        *rand.Rand
	nextTail int                // next held-back edge to insert
	deleted  map[[2]uint64]bool // endpoint pairs already deleted
	ins, del int                // batch sizes
	wcc      algo
	last     digest // the latest incremental answer
	ran      bool   // the replica has been built
}

// loadShare is the part of the temporal edge stream in the CSV; the tail is
// held back as the first inserts.
const loadShare = 0.75

// newMutateInst generates the workload's inputs: the CSV and everything the
// mutation schedule is drawn from.
func newMutateInst(e env) *mutateInst {
	m := &mutateInst{
		sc:      e.sc,
		csv:     temporalInput("temporal", e.seed, e.sc.mNodes, e.sc.mEdges, loadShare),
		r:       rand.New(rand.NewSource(e.seed ^ 0x6d757461)),
		deleted: map[[2]uint64]bool{},
		wcc:     algo{name: "wcc", spec: analytics.Spec{Algorithm: "wcc"}},
	}
	m.loaded = int(float64(e.sc.mEdges) * loadShare)
	m.nextTail = m.loaded
	m.ins, m.del = max(1, m.loaded/200), max(1, m.loaded/2000) // 0.5 % and 0.05 %
	m.wins = rolling(5, int(days*loadShare))
	return m
}

func mutateSetup(ctx context.Context, e env) (instance, error) {
	m := newMutateInst(e)
	var err error
	if m.eng, err = core.NewEngine(core.Options{Workers: 1, DataDir: filepath.Join(e.dir, "data")}); err != nil {
		return nil, err
	}
	m.sess = m.eng.NewSession()
	if m.load, err = loadGraph(ctx, m.sess, m.csv, e.dir); err != nil {
		m.close()
		return nil, err
	}
	if err := statements(ctx, m.sess, collectionGVDL(collName, graphName, m.wins)); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

func (m *mutateInst) close() { m.eng.Close() }

func (m *mutateInst) inputsHash() string { return m.csv.hash() }

// batch draws the next round's mutation: inserts are the held-back tail of
// the edge stream in order and, once that is used up, edges drawn with the
// generator's endpoint skew at the latest timestamp; deletes are distinct
// endpoint pairs of loaded edges, each deleted once.
func (m *mutateInst) batch() *core.MutateRequest {
	g := m.csv.g
	ts, dur := g.EdgeProps.Cols[0].Ints, g.EdgeProps.Cols[1].Ints
	req := &core.MutateRequest{Graph: graphName}
	for i := 0; i < m.ins; i++ {
		var ec core.EdgeChange
		if m.nextTail < g.NumEdges() {
			e := m.nextTail
			m.nextTail++
			ec = core.EdgeChange{Src: g.Srcs[e], Dst: g.Dsts[e], Props: map[string]any{"ts": ts[e], "duration": dur[e]}}
		} else {
			src := uint64(m.r.Intn(g.NumNodes))
			dst := uint64(float64(g.NumNodes) * m.r.Float64() * m.r.Float64())
			if dst == src {
				dst = (dst + 1) % uint64(g.NumNodes)
			}
			ec = core.EdgeChange{Src: src, Dst: dst, Props: map[string]any{"ts": int64(days - 1), "duration": int64(1 + m.r.Intn(60))}}
		}
		req.Inserts = append(req.Inserts, ec)
	}
	for len(req.Deletes) < m.del {
		e := m.r.Intn(m.loaded)
		pair := [2]uint64{g.Srcs[e], g.Dsts[e]}
		if m.deleted[pair] {
			continue
		}
		m.deleted[pair] = true
		req.Deletes = append(req.Deletes, core.EdgeChange{Src: pair[0], Dst: pair[1]})
	}
	return req
}

// passesFor sizes the schedule: a pass of 50 rounds takes about 1.4 s on the
// machine the first baseline was recorded on.
func (m *mutateInst) passesFor(secs float64) int { return int(secs / 1.4) }

func (m *mutateInst) pass(ctx context.Context, r *recorder) {
	for i := 0; i < m.sc.mRounds; i++ {
		mut := m.batch()
		r.op("mutate", "mutate", "graph", func(int) error {
			resp, err := m.sess.Do(ctx, mut)
			if err != nil {
				return err
			}
			if got := resp.(*core.MutationApplied); got.Inserted != len(mut.Inserts) {
				return fmt.Errorf("%d of %d inserts applied", got.Inserted, len(mut.Inserts))
			}
			return nil
		})
		r.op("run wcc incremental", "run", "core", func(sp int) error {
			res, d, err := runDigest(ctx, m.sess, &core.RunRequest{
				Collection: collName, Algorithm: m.wcc.spec, Options: core.RunOptions{Incremental: true},
			})
			if err != nil {
				return err
			}
			r.run(sp, res, 1)
			m.last = d
			if m.ran && !res.Incremental {
				return fmt.Errorf("the warm incremental replica was rebuilt cold")
			}
			m.ran = true
			return nil
		})
	}
}

func (m *mutateInst) layers(_ context.Context, _ *recorder, tp *passStats, _ time.Duration) map[string]float64 {
	vals := runLayers(tp)
	vals["graph.load_s"] = m.load.Seconds()
	vals["graph.mutate_p50_ms"] = median(tp.kinds["mutate"])
	vals["core.incremental_p50_ms"] = median(tp.kinds["run"])
	vals["core.incremental_work"] = float64(tp.work)
	return vals
}

// verify compares the replica's latest answer, after every mutation so far,
// with a fresh diff-only run over the maintained collection and with a
// from-scratch run over a newly created view of the last window.
func (m *mutateInst) verify(ctx context.Context, r *recorder) {
	m.wcc.want = expect{set: true, d: m.last}
	_, d, err := runDigest(ctx, m.sess, &core.RunRequest{Collection: collName, Algorithm: m.wcc.spec})
	if err == nil {
		err = m.wcc.want.match("diff-only over the maintained collection", d)
	}
	r.check("equivalence wcc diff-only", err)
	r.check("create reference view", statements(ctx, m.sess, viewGVDL("lastview", graphName, m.wins[len(m.wins)-1])))
	d, err = viewDigest(ctx, m.sess, "lastview", &m.wcc)
	if err == nil {
		err = m.wcc.want.match("the last view after mutation", d)
	}
	r.check("reference wcc", err)
}

// mutationHash identifies the first n rounds of a seed's mutation schedule.
func mutationHash(seed int64, sc scale, n int) string {
	m := newMutateInst(env{seed: seed, sc: sc})
	var parts []string
	for i := 0; i < n; i++ {
		b, err := json.Marshal(m.batch())
		if err != nil {
			panic(err) // a struct of integers and strings always marshals
		}
		parts = append(parts, string(b))
	}
	return hashStrings(parts...)
}
