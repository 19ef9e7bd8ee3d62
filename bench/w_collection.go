package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/cluster"
	"graphsurge/internal/core"
	"graphsurge/internal/graph"
)

// The four collection-run workloads share one shape: load a temporal graph,
// create one collection over time windows, and run an algorithm suite over
// it through Session.Do. They differ in how much consecutive views share,
// the execution mode, and where segments execute.

type collSpec struct {
	input       func(e env) *csvGraph
	windows     []window
	suite       []string
	mode        core.ExecMode
	parallelism int
	cluster     bool
}

func temporalShared(e env) *csvGraph {
	return temporalInput("temporal", e.seed, e.sc.tNodes, e.sc.tEdges, 1)
}

var (
	similarDiff = collSpec{
		input: temporalShared, windows: expanding(16),
		suite: []string{"wcc", "bfs", "sssp", "mpsp"},
		mode:  core.DiffOnly, parallelism: 1,
	}
	disjointScratch = collSpec{
		input: temporalShared, windows: disjoint(8),
		suite: []string{"wcc", "bfs", "sssp", "mpsp", "pagerank", "scc"},
		mode:  core.Scratch, parallelism: 2,
	}
	disjointCluster = collSpec{
		input: temporalShared, windows: disjoint(8),
		suite: disjointScratch.suite,
		mode:  core.Scratch, parallelism: 2, cluster: true,
	}
	mixedAdaptive = collSpec{
		input: func(e env) *csvGraph {
			return temporalInput("temporal", e.seed, e.sc.aNodes, e.sc.aEdges, 1)
		},
		windows: append(expanding(8), disjoint(8)...),
		suite:   []string{"wcc", "pagerank"},
		mode:    core.Adaptive, parallelism: 1,
	}
)

// rankSources orders nodes by how many out-edges they keep in their sparsest
// window, best first (ties to the lower ID): a traversal from the first node
// has somewhere to go in every view, so its cost reflects the graph and not
// the luck of one node's edges.
func rankSources(g *graph.Graph, ws []window) []uint64 {
	ti, _ := g.EdgeProps.ColumnIndex("ts")
	ts := g.EdgeProps.Cols[ti].Ints
	deg := make([][]int32, len(ws))
	for w := range deg {
		deg[w] = make([]int32, g.NumNodes)
	}
	for e, s := range g.Srcs {
		for w := range ws {
			if ws[w].contains(ts[e]) {
				deg[w][s]++
			}
		}
	}
	floor := make([]int32, g.NumNodes)
	ids := make([]uint64, g.NumNodes)
	for v := range ids {
		ids[v] = uint64(v)
		floor[v] = deg[0][v]
		for w := range deg {
			floor[v] = min(floor[v], deg[w][v])
		}
	}
	sort.SliceStable(ids, func(i, j int) bool { return floor[ids[i]] > floor[ids[j]] })
	return ids
}

// suite instantiates the named algorithms for a graph and its windows: bfs
// and sssp start from the best-connected source, mpsp asks for the distance
// from the two best sources to the two biggest hubs (the generator's
// lowest IDs), and sssp/mpsp weigh edges by duration.
func suite(names []string, g *graph.Graph, ws []window, sc scale) []algo {
	srcs := rankSources(g, ws)
	var out []algo
	for _, n := range names {
		a := algo{name: n, spec: analytics.Spec{Algorithm: n}}
		switch n {
		case "bfs":
			a.spec.Source = srcs[0]
		case "sssp":
			a.spec.Source, a.weight = srcs[0], "duration"
		case "mpsp":
			a.weight = "duration"
			for i := 0; i < 2; i++ {
				p := analytics.Pair{Src: srcs[i], Dst: uint64(i)}
				if p.Src == p.Dst {
					p.Dst = uint64(i + 2)
				}
				a.spec.Pairs = append(a.spec.Pairs, p)
			}
		case "pagerank":
			a.spec.Iterations = sc.prIters
		}
		out = append(out, a)
	}
	return out
}

// localWorkers is an in-process cluster: worker servers on loopback TCP,
// each over its own engine, and a coordinator that shards onto them.
type localWorkers struct {
	coord   *cluster.Coordinator
	servers []*cluster.Server
	engines []*core.Engine
}

func startWorkers(ctx context.Context, eng *core.Engine, n int) (*localWorkers, error) {
	lw := &localWorkers{coord: cluster.NewCoordinator(eng, cluster.Options{})}
	for i := 0; i < n; i++ {
		weng, err := core.NewEngine(core.Options{Workers: 1})
		if err != nil {
			lw.close()
			return nil, err
		}
		lw.engines = append(lw.engines, weng)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lw.close()
			return nil, err
		}
		srv := cluster.NewServer(weng, 1)
		srv.Start(l)
		lw.servers = append(lw.servers, srv)
		if err := lw.coord.AddWorker(ctx, l.Addr().String()); err != nil {
			lw.close()
			return nil, err
		}
	}
	return lw, nil
}

func (lw *localWorkers) close() {
	lw.coord.Close()
	for _, s := range lw.servers {
		s.Close()
	}
	for _, e := range lw.engines {
		e.Close()
	}
}

type collInst struct {
	spec    collSpec
	e       env
	csv     *csvGraph
	eng     *core.Engine
	sess    *core.Session
	algs    []algo
	workers *localWorkers
	load    time.Duration
}

const (
	graphName = "G"
	collName  = "col"
)

// loadGraph starts from the CSV files a user would have: it writes them,
// and loads them through the session. It returns the load request's time.
func loadGraph(ctx context.Context, sess *core.Session, csv *csvGraph, dir string) (time.Duration, error) {
	nodes, edges, err := csv.write(dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = sess.Do(ctx, &core.LoadGraphRequest{Name: graphName, NodesPath: nodes, EdgesPath: edges})
	return time.Since(t0), err
}

func (s collSpec) setup(ctx context.Context, e env) (instance, error) {
	c := &collInst{spec: s, e: e, csv: s.input(e)}
	var err error
	if c.eng, err = core.NewEngine(core.Options{Workers: 1}); err != nil {
		return nil, err
	}
	c.sess = c.eng.NewSession()
	if c.load, err = loadGraph(ctx, c.sess, c.csv, e.dir); err != nil {
		c.close()
		return nil, err
	}
	if err := statements(ctx, c.sess, collectionGVDL(collName, graphName, s.windows)); err != nil {
		c.close()
		return nil, err
	}
	c.algs = suite(s.suite, c.csv.g, s.windows, e.sc)
	if s.cluster {
		if c.workers, err = startWorkers(ctx, c.eng, s.parallelism); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *collInst) close() {
	if c.workers != nil {
		c.workers.close()
	}
	c.eng.Close()
}

func (c *collInst) inputsHash() string { return c.csv.hash() }

// runSuite runs every algorithm once in the given mode, locally or through
// the coordinator. Every run's final results must reproduce the digest the
// algorithm's first run produced, whatever the strategy.
func (c *collInst) runSuite(ctx context.Context, r *recorder, mode core.ExecMode, clustered bool) {
	for i := range c.algs {
		a := &c.algs[i]
		req := &core.RunRequest{
			Collection: collName,
			Algorithm:  a.spec,
			Options:    core.RunOptions{Mode: mode, Parallelism: c.spec.parallelism, WeightProp: a.weight},
		}
		if clustered {
			req.Runner = c.workers.coord
		}
		r.op("run "+a.name, a.name, "core", func(sp int) error {
			res, d, err := runDigest(ctx, c.sess, req)
			if err != nil {
				return err
			}
			r.run(sp, res, c.spec.parallelism)
			if clustered {
				// Stats describe the coordinator's most recent run: this one.
				st := c.workers.coord.Stats()
				r.count("wire_bytes", float64(st.WireBytes))
				r.count("requeued", float64(st.Requeued))
			}
			return a.want.match(fmt.Sprintf("%s %s", a.name, mode), d)
		})
	}
}

func (c *collInst) pass(ctx context.Context, r *recorder) {
	c.runSuite(ctx, r, c.spec.mode, c.spec.cluster)
}

// timeSuite times one pass of the suite under another strategy, after one
// unmeasured pass so that strategy's replicas are as warm as the measured
// one's.
func (c *collInst) timeSuite(ctx context.Context, r *recorder, mode core.ExecMode, clustered bool) time.Duration {
	c.runSuite(ctx, r, mode, clustered)
	t0 := time.Now()
	c.runSuite(ctx, r, mode, clustered)
	return time.Since(t0)
}

func (c *collInst) layers(ctx context.Context, r *recorder, tp *passStats, untraced time.Duration) map[string]float64 {
	vals := runLayers(tp)
	vals["graph.load_s"] = c.load.Seconds()
	engines := []*core.Engine{c.eng}
	if c.workers != nil {
		engines = append(engines, c.workers.engines...) // shards run on the workers' pools
	}
	for _, eng := range engines {
		if resp, err := eng.NewSession().Do(ctx, &core.PoolStatsRequest{}); err == nil {
			for _, p := range resp.(*core.PoolStatsResponse).Pools {
				vals["core.pool_built"] += float64(p.Built)
				vals["core.pool_reused"] += float64(p.Reused)
			}
		}
	}
	if c.spec.cluster {
		vals["cluster.requeued"] = tp.counts["requeued"]
		vals["cluster.wire_bytes"] = tp.counts["wire_bytes"]
		local := c.timeSuite(ctx, r, c.spec.mode, false)
		vals["cluster.overhead_ratio"] = untraced.Seconds() / local.Seconds()
	}
	if c.spec.mode == core.Adaptive {
		vals["splitting.splits"] = float64(tp.splits)
		best := min(c.timeSuite(ctx, r, core.DiffOnly, false), c.timeSuite(ctx, r, core.Scratch, false))
		vals["splitting.adaptive_vs_best"] = untraced.Seconds() / best.Seconds()
	}
	return vals
}

// runLayers derives the dataflow and core metrics from what a pass's
// RunResults reported.
func runLayers(tp *passStats) map[string]float64 {
	vals := map[string]float64{
		"dataflow.work": float64(tp.work),
		"core.setup_s":  tp.setup.Seconds(),
		"core.drain_s":  tp.drain.Seconds(),
	}
	if tp.work > 0 {
		vals["dataflow.ns_per_work"] = float64(tp.drain) / float64(tp.work)
		vals["dataflow.bytes_per_work"] = float64(tp.alloc) / float64(tp.work)
	}
	if tp.laneWall > 0 {
		vals["core.unattributed_share"] = max(0, 1-float64(tp.setup+tp.drain)/float64(tp.laneWall))
	}
	return vals
}

// verify compares, for every algorithm, the digest the passes produced with
// a from-scratch run over a standalone view equal to the collection's last
// view, then runs the cross-strategy equivalence matrix on a small graph of
// the same seed and window shape.
func (c *collInst) verify(ctx context.Context, r *recorder) {
	last := c.spec.windows[len(c.spec.windows)-1]
	r.check("create reference view", statements(ctx, c.sess, viewGVDL("lastview", graphName, last)))
	for i := range c.algs {
		a := &c.algs[i]
		d, err := viewDigest(ctx, c.sess, "lastview", a)
		if err == nil {
			err = a.want.match(a.name+" on the last view", d)
		}
		r.check("reference "+a.name, err)
	}
	equivalenceMatrix(ctx, r, c.spec, c.e)
}
