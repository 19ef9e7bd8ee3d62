// Package graphsurge's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§7) at benchmark scale — one testing.B
// benchmark per table/figure, wired to the same harness as cmd/experiments.
// Run the full-size versions with:
//
//	go run ./cmd/experiments all
//
// Benchmarks report the headline shape metric of their experiment alongside
// wall time, so `go test -bench=.` doubles as a regression check on the
// reproduction shapes.
package graphsurge

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/experiments"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/obs"
	"graphsurge/internal/server"
	"graphsurge/internal/splitting"
	"graphsurge/internal/tenant"
	"graphsurge/internal/view"
)

// benchScale keeps each benchmark iteration in the seconds range on one
// core; raise it to approach the paper-sized runs.
const benchScale = 0.08

func benchCfg() experiments.Config {
	return experiments.Config{Scale: benchScale, Workers: 1, Out: io.Discard}
}

// BenchmarkTable2 regenerates Table 2: Bellman-Ford and PageRank, diff-only
// vs scratch, on similar and dissimilar collections. Reported metric:
// Bellman-Ford's scratch/diff speedup on the similar collection (paper:
// ~9.6x).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Collection == "Csmall" && r.Algorithm == "BF" {
				b.ReportMetric(float64(r.Scratch)/float64(r.DiffOnly), "BF-sim-speedup")
			}
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: expanding-window collections, where
// diff-only should win increasingly as windows shrink. Reported metric:
// WCC's scratch/diff speedup on the smallest window (paper: up to ~13.7x).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "WCC" && r.Window == "w=5d" {
				b.ReportMetric(float64(r.Scratch)/float64(r.DiffOnly), "WCC-w5-speedup")
			}
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: non-overlapping windows, where scratch
// should win but boundedly (paper: ≤ ~2.5x). Reported metric: WCC's
// diff/scratch ratio on the smallest window.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "WCC" && r.Window == "w=40d" {
				b.ReportMetric(float64(r.DiffOnly)/float64(r.Scratch), "WCC-diff-over-scratch")
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the citation-graph collections with
// the adaptive optimizer. Reported metric: how close adaptive comes to the
// best of diff-only/scratch for WCC on Caut (≤ 1 means it beat both, as in
// the paper).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "WCC" && r.Collection == "Caut" {
				best := min(r.DiffOnly, r.Scratch)
				b.ReportMetric(float64(r.Adaptive)/float64(best), "WCC-Caut-adapt-vs-best")
			}
		}
	}
}

// BenchmarkTable4 regenerates Table 4: diffs and collection creation time
// under the ordering optimizer vs random orders. Reported metric: the
// random-to-optimized diff ratio for the LJ 10C5 collection (paper:
// 9.5-10.3x).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var ord, rnd int64
		for _, r := range rows {
			if r.Dataset == "lj" && r.Collection == "10C5" {
				if r.Order == "Ord" {
					ord = r.Diffs
				} else if r.Order == "R1" {
					rnd = r.Diffs
				}
			}
		}
		if ord > 0 {
			b.ReportMetric(float64(rnd)/float64(ord), "lj-10C5-diff-reduction")
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: algorithm runtimes under orderings on
// the LJ-like graph, adaptive off/on. Reported metric: WCC random/ordered
// runtime ratio on 10C5 with adaptive off (paper: up to 37.4x; ordering
// should win clearly).
func BenchmarkFig8(b *testing.B) {
	benchFig89(b, experiments.Fig8)
}

// BenchmarkFig9 regenerates Figure 9: the same experiment on the WTC-like
// graph.
func BenchmarkFig9(b *testing.B) {
	benchFig89(b, experiments.Fig9)
}

func benchFig89(b *testing.B, fig func(context.Context, experiments.Config) ([]experiments.Fig89Row, error)) {
	for i := 0; i < b.N; i++ {
		rows, err := fig(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var ord, rnd float64
		for _, r := range rows {
			if r.Collection == "10C5" && r.Algorithm == "WCC" {
				if r.Order == "Ord" {
					ord = r.NoAdapt.Seconds()
				} else if r.Order == "R1" {
					rnd = r.NoAdapt.Seconds()
				}
			}
		}
		if ord > 0 {
			b.ReportMetric(rnd/ord, "WCC-ordering-speedup")
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: scaling over workers. Reported
// metric: the max-work-per-worker reduction from 1 to 4 workers for WCC
// (ideal: 4.0; the paper reports near-linear runtime scaling on real
// machines).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(context.Background(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var w1, w4 float64
		for _, r := range rows {
			if r.Algorithm == "WCC" {
				switch r.Workers {
				case 1:
					w1 = float64(r.MaxWork)
				case 4:
					w4 = float64(r.MaxWork)
				}
			}
		}
		if w4 > 0 {
			b.ReportMetric(w1/w4, "WCC-work-scaling-4w")
		}
	}
}

// BenchmarkSegmentParallel measures the plan → segment-executor pipeline in
// Scratch mode on the bench collection, where every view is an independent
// single-view segment dispatched onto the replica pool. On multicore
// hardware the wall-time ratio between the parallel=1 and parallel=4
// sub-benchmarks is the real speedup (≥1.5x expected at 4 replicas on ≥4
// cores). Single-core hosts cannot improve wall clock — the Figure-10
// situation — so each run also reports proj-speedup: the measured
// per-segment runtimes list-scheduled onto the replica count, i.e. the
// makespan improvement the pool achieves once cores are available.
func BenchmarkSegmentParallel(b *testing.B) {
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 2_000, Edges: 24_000, Days: 64, Seed: 9})
	g.Name = "seg"
	dayCol, _ := g.EdgeProps.ColumnIndex("ts")
	days := g.EdgeProps.Cols[dayCol].Ints
	names := make([]string, 8)
	preds := make([]gvdl.Expr, 8)
	for i := range preds {
		lim := int64((i + 1) * 8) // nested windows: views of growing size
		names[i] = fmt.Sprintf("w%d", i)
		preds[i] = gvdl.Func(func(e int) bool { return days[e] < lim })
	}
	col, err := view.MaterializeFromPredicates("seg-col", g, names, preds, nil, view.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.RunCollectionContext(context.Background(), col, analytics.WCC{}, core.RunOptions{
					Mode:        core.Scratch,
					Parallelism: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(projectedSpeedup(res.Stats, p), "proj-speedup")
			}
		})
	}
}

// projectedSpeedup list-schedules the measured per-segment durations onto p
// replica slots in collection order — the same greedy work-conserving order
// the pool uses under FIFO — and returns sequential-total over
// parallel-makespan.
func projectedSpeedup(stats []core.ViewStats, p int) float64 {
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	return projectedSpeedupOrdered(stats, p, order)
}

// projectedSpeedupOrdered is projectedSpeedup with an explicit dispatch
// permutation, so scheduled (LPT) dispatch can be projected too.
func projectedSpeedupOrdered(stats []core.ViewStats, p int, order []int) float64 {
	slots := make([]time.Duration, p)
	var total time.Duration
	for _, si := range order {
		st := stats[si]
		min := 0
		for s := 1; s < p; s++ {
			if slots[s] < slots[min] {
				min = s
			}
		}
		slots[min] += st.Duration
		total += st.Duration
	}
	makespan := slots[0]
	for _, s := range slots[1:] {
		if s > makespan {
			makespan = s
		}
	}
	if makespan == 0 {
		return 0
	}
	return float64(total) / float64(makespan)
}

// BenchmarkLPTSkew measures LPT dispatch on the shape it exists for: a
// scratch-mode collection with one view ~10x the rest (straggler last in
// collection order) on 4 replicas. Under FIFO the
// straggler is dispatched last and serializes the tail; LPT dispatches it
// first. On multicore hardware the wall-time (ns/op) gap between the
// sub-benchmarks is the real improvement; single-core hosts cannot improve
// wall clock, so each run also reports proj-speedup — the measured per-view
// runtimes list-scheduled onto the replica count in the dispatch order the
// policy produced (the makespan improvement once cores are available) —
// plus the engine pool's built/reused counters.
func BenchmarkLPTSkew(b *testing.B) {
	const k, par = 10, 4
	small := 1_500
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 3_000, Edges: (k - 1 + 10) * small, Days: 64, Seed: 13})
	g.Name = "lptskew"
	names := make([]string, k)
	adds := make([][]uint32, k)
	dels := make([][]uint32, k)
	next := 0
	for v := 0; v < k; v++ {
		n := small
		if v == k-1 {
			n = 10 * small // the straggler
		}
		names[v] = fmt.Sprintf("v%d", v)
		for e := next; e < next+n; e++ {
			adds[v] = append(adds[v], uint32(e))
		}
		if v > 0 {
			dels[v] = append(dels[v], adds[v-1]...)
		}
		next += n
	}
	col := view.NewCollection("lptskew-col", g, &view.DiffStream{Names: names, Adds: adds, Dels: dels})

	for _, policy := range []splitting.Policy{splitting.FIFO, splitting.LPT} {
		b.Run("policy="+policy.String(), func(b *testing.B) {
			e, err := core.NewEngine(core.Options{Parallelism: par})
			if err != nil {
				b.Fatal(err)
			}
			if err := e.AddGraph(g); err != nil {
				b.Fatal(err)
			}
			if err := e.AddCollection(col); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := e.RunCollection(context.Background(), col.Name, analytics.WCC{}, core.RunOptions{
					Mode:     core.Scratch,
					Schedule: policy,
				})
				if err != nil {
					b.Fatal(err)
				}
				// Project the policy's dispatch order onto the replica
				// count: FIFO is collection order; LPT is the order
				// dispatch used, largest segment first (a scratch segment
				// carries no difference sets).
				order := make([]int, len(res.Stats))
				for j := range order {
					order[j] = j
				}
				if policy == splitting.LPT {
					order = splitting.LPTOrder(splitting.PlanScratch(k), col.Stream.ViewSizes(), make([]int, k))
				}
				b.ReportMetric(projectedSpeedupOrdered(res.Stats, par, order), "proj-speedup")
			}
			for _, ps := range e.PoolStats() {
				b.ReportMetric(float64(ps.Built), "pool-built")
				b.ReportMetric(float64(ps.Reused), "pool-reused")
			}
		})
	}
}

// BenchmarkParallelAdaptive measures the adaptive planner at Parallelism 1
// and 4 on two shapes over one graph, at ℓ = 2 and at the default ℓ the CLI
// and server run with. On disjoint windows differential execution never
// pays and the optimizer splits, so at Parallelism 4 a closed segment's
// tail drains while the paced planner seeds the next one on a fresh
// replica. On expanding windows sharing wins and nothing splits. Reported:
// wall ns/op plus splits per run. Results equal to Parallelism 1 are pinned
// by TestParallelAdaptiveSplits and TestParallelAdaptiveKeepsDiffing.
func BenchmarkParallelAdaptive(b *testing.B) {
	const k, perView = 16, 2_000
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 2_500, Edges: k * perView, Days: 64, Seed: 23})
	g.Name = "paradapt"
	for _, shape := range []string{"disjoint", "expanding"} {
		names := make([]string, k)
		adds := make([][]uint32, k)
		dels := make([][]uint32, k)
		for v := 0; v < k; v++ {
			names[v] = fmt.Sprintf("w%d", v)
			for e := v * perView; e < (v+1)*perView; e++ {
				adds[v] = append(adds[v], uint32(e))
			}
			if v > 0 && shape == "disjoint" {
				dels[v] = adds[v-1]
			}
		}
		col := view.NewCollection(shape+"-col", g, &view.DiffStream{Names: names, Adds: adds, Dels: dels})
		for _, batch := range []int{2, 0} {
			ell := "default"
			if batch > 0 {
				ell = fmt.Sprint(batch)
			}
			for _, par := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/batch=%s/parallelism=%d", shape, ell, par), func(b *testing.B) {
					var splits int
					for i := 0; i < b.N; i++ {
						res, err := core.RunCollectionContext(context.Background(), col, analytics.WCC{}, core.RunOptions{
							Mode:        core.Adaptive,
							Parallelism: par,
							BatchSize:   batch,
						})
						if err != nil {
							b.Fatal(err)
						}
						splits += res.Splits
					}
					b.ReportMetric(float64(splits)/float64(b.N), "splits")
				})
			}
		}
	}
}

// BenchmarkPoolReuse measures what engine-level runner pooling saves: the
// replica-preparation cost Pool.Acquire reports (and the executor folds
// into every split's duration). fresh-build constructs a runner's dataflow
// from zero, as every Acquire on an empty pool must; pool-reset recycles
// one runner that just finished a full-view run, resetting it in place —
// no graph reconstruction, state dropped in place, keeping every emptied
// column and map for the next run. The reset variant
// must come out measurably cheaper; that gap, times the number of segments
// and RunCollection calls an engine serves, is what the pool amortizes.
// The staged SCC sub-benchmarks magnify the effect: a fresh SCC runner
// builds its phases on its first step, two dataflows (a trim and a
// coloring) per phase, so its rows time that first step as well, on a
// chain of three two-vertex cycles, which needs three phases.
func BenchmarkPoolReuse(b *testing.B) {
	g := datagen.Social(datagen.SocialConfig{Nodes: 1_500, Edges: 12_000, Seed: 7})
	seed := graph.MakeEdgeBatch(g.NumEdges(), func(i int) graph.Triple { return g.Triple(i, -1) })
	chain := graph.NewEdgeBatch([]graph.Triple{
		{Src: 0, Dst: 1, W: 1}, {Src: 1, Dst: 0, W: 1},
		{Src: 2, Dst: 3, W: 1}, {Src: 3, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 1},
		{Src: 4, Dst: 5, W: 1}, {Src: 5, Dst: 4, W: 1}, {Src: 4, Dst: 3, W: 1},
	})
	for _, c := range []struct {
		name  string
		comp  analytics.Computation
		first *graph.EdgeBatch // a first step timed with the build or the reset
	}{
		{"wcc", analytics.WCC{}, nil},
		{"scc", analytics.SCC{}, chain},
	} {
		b.Run(c.name+"/fresh-build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := analytics.NewRunner(c.comp, 1)
				if err != nil {
					b.Fatal(err)
				}
				if c.first != nil {
					r.Step(c.first, nil)
				}
			}
		})
		b.Run(c.name+"/pool-reset", func(b *testing.B) {
			b.ReportAllocs()
			r, err := analytics.NewRunner(c.comp, 1)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the runner with a full-view run before the first timed
			// reset, so every iteration resets state that has grown to a
			// full view's size.
			r.Step(seed, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Reset(); err != nil {
					b.Fatal(err)
				}
				if c.first != nil {
					r.Step(c.first, nil)
				}
			}
		})
	}
}

// BenchmarkEngineWCCStep measures the engine's raw differential step cost:
// one ±8-edge delta applied to a live WCC dataflow over a 30k-edge graph.
func BenchmarkEngineWCCStep(b *testing.B) {
	g := datagen.Social(datagen.SocialConfig{Nodes: 3_000, Edges: 30_000, Seed: 5})
	runner, err := analytics.NewRunner(analytics.WCC{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	all := graph.MakeEdgeBatch(g.NumEdges(), func(i int) graph.Triple { return g.Triple(i, -1) })
	runner.Step(all, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 8) % (all.Len() - 8)
		d := &graph.EdgeBatch{Srcs: all.Srcs[lo : lo+8], Dsts: all.Dsts[lo : lo+8], Ws: all.Ws[lo : lo+8]}
		runner.Step(d, d) // re-add after remove keeps state bounded
	}
}

// benchMutationEngine builds the dynamic-graph benchmark fixture: a
// temporal graph with a five-view rolling collection over it.
func benchMutationEngine(b *testing.B) (*core.Engine, *graph.Graph) {
	b.Helper()
	e, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 2000, Edges: 20000, Days: 100, Seed: 13})
	g.Name = "dyn"
	if err := e.AddGraph(g); err != nil {
		b.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(),
		"create view collection roll on dyn [a: ts < 20], [b: ts < 40], [c: ts < 60], [d: ts < 80], [e: ts < 100]"); err != nil {
		b.Fatal(err)
	}
	return e, g
}

// benchBatch builds one small random mutation batch: ~0.5% of the base
// edge count as inserts plus a handful of deletions.
func benchBatch(b *testing.B, r *rand.Rand, g *graph.Graph) *graph.MutationBatch {
	b.Helper()
	ins := make([]graph.EdgeInsert, 100)
	for i := range ins {
		ins[i] = graph.EdgeInsert{
			Src: uint64(r.Intn(g.NumNodes)),
			Dst: uint64(r.Intn(g.NumNodes)),
			Props: map[string]graph.Value{
				"ts":       graph.IntValue(int64(r.Intn(100))),
				"duration": graph.IntValue(int64(1 + r.Intn(60))),
			},
		}
	}
	seen := map[[2]uint64]bool{}
	var dels []graph.EdgePair
	for len(dels) < 50 {
		i := r.Intn(g.NumEdges())
		if !g.EdgeAlive(i) {
			continue
		}
		key := [2]uint64{g.Srcs[i], g.Dsts[i]}
		if seen[key] {
			continue
		}
		seen[key] = true
		dels = append(dels, graph.EdgePair{Src: key[0], Dst: key[1]})
	}
	mb, err := graph.NewMutationBatch(g, ins, dels)
	if err != nil {
		b.Fatal(err)
	}
	return mb
}

// BenchmarkIncrementalMaintenance compares the two ways to refresh a result
// after a small mutation batch (≤1% of the base edges): feeding the delta
// into the warm incremental replica versus re-draining the maintained
// collection's whole difference stream. Each iteration applies one batch
// and re-runs WCC; maintenance cost is common to both arms, so the spread
// is the run path itself. The "work" metric is the run's aggregated
// per-worker work counter — delta-sized on the incremental arm.
func BenchmarkIncrementalMaintenance(b *testing.B) {
	ctx := context.Background()
	for _, arm := range []struct {
		name string
		opts core.RunOptions
	}{
		{"incremental", core.RunOptions{Incremental: true}},
		{"scratch", core.RunOptions{}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			e, g := benchMutationEngine(b)
			defer e.Close()
			col, _ := e.Collection("roll")
			r := rand.New(rand.NewSource(29))
			// Build the warm replica (and warm the scratch pools) before
			// the clock starts.
			if _, err := e.RunOn(ctx, col, analytics.WCC{}, arm.opts); err != nil {
				b.Fatal(err)
			}
			var work int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mb := benchBatch(b, r, g)
				b.StartTimer()
				if _, err := e.ApplyMutation("dyn", mb); err != nil {
					b.Fatal(err)
				}
				res, err := e.RunOn(ctx, col, analytics.WCC{}, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				work += res.MaxWork()
			}
			b.ReportMetric(float64(work)/float64(b.N), "work")
		})
	}
}

// BenchmarkServeCached measures the multi-tenant serving layer end to end
// over HTTP. Eight concurrent clients post the same RunRequest against (a) a
// bare server that executes every request and (b) one fronted by the tenant
// result cache, and the benchmark reports the p99 request latency of each
// path plus their ratio — the acceptance bar is a >=5x p99 improvement on the
// warm cache. It also reports the cache hit rate observed during the cached
// herd and, from a prefix-extended ladder of collections run in diff mode,
// how many runs were answered by differential suffix replay instead of a
// fresh execution.
func BenchmarkServeCached(b *testing.B) {
	const (
		clients = 8
		rounds  = 4
		baseK   = 8
		topK    = 16
	)
	e, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 1_500, Edges: 15_000, Days: 100, Seed: 7})
	g.Name = "g"
	if err := e.AddGraph(g); err != nil {
		b.Fatal(err)
	}
	// A ladder of collections srv8..srv16 sharing view names and predicates:
	// srv(k+1) extends srv(k) by one view, so their diff streams share
	// byte-identical prefixes — the property suffix replay keys on.
	for k := baseK; k <= topK; k++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "create view collection srv%d on g ", k)
		for i := 0; i < k; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "[srv_v%d: ts < %d]", i, 5*(i+1))
		}
		if _, err := e.ExecuteContext(context.Background(), sb.String()); err != nil {
			b.Fatal(err)
		}
	}

	bare := httptest.NewServer(server.New(e, server.Options{}).Handler())
	defer bare.Close()
	mw := tenant.New(e, tenant.Options{CacheEntries: 256, CacheReplicas: 8})
	cached := httptest.NewServer(server.New(e, server.Options{Tenant: mw}).Handler())
	defer cached.Close()

	runBody := func(col, mode string) string {
		return fmt.Sprintf(`{"run": {"collection": %q, "algorithm": {"algorithm": "wcc"}, "options": {"mode": %q}}}`, col, mode)
	}
	post := func(url, body string) (time.Duration, error) {
		start := time.Now()
		resp, err := http.Post(url+"/v1/do", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil {
			return 0, cerr
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %d", resp.StatusCode)
		}
		return time.Since(start), nil
	}
	// herd fires clients*rounds identical requests from `clients` concurrent
	// goroutines and returns every request latency, sorted.
	herd := func(url, body string) []time.Duration {
		lat := make([]time.Duration, clients*rounds)
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					d, err := post(url, body)
					if err != nil {
						errs <- err
						return
					}
					lat[c*rounds+r] = d
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat
	}
	p99 := func(lat []time.Duration) float64 {
		return float64(lat[len(lat)*99/100]) / float64(time.Millisecond)
	}

	// Suffix-replay ladder (once, before timing): the first diff-mode run
	// builds a replay replica, and each one-view-longer collection after it
	// extends that replica instead of executing from scratch.
	if _, err := post(cached.URL, runBody(fmt.Sprintf("srv%d", baseK), "diff")); err != nil {
		b.Fatal(err)
	}
	replaysBefore := obs.M.CacheReplays.Value()
	for k := baseK + 1; k <= topK; k++ {
		if _, err := post(cached.URL, runBody(fmt.Sprintf("srv%d", k), "diff")); err != nil {
			b.Fatal(err)
		}
	}
	replayRuns := float64(obs.M.CacheReplays.Value() - replaysBefore)

	scratch := runBody(fmt.Sprintf("srv%d", baseK), "scratch")
	if _, err := post(cached.URL, scratch); err != nil { // warm the cache
		b.Fatal(err)
	}
	var uncachedP99, cachedP99, hitRate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uncachedLat := herd(bare.URL, scratch)
		hitsBefore := obs.M.CacheHits.Value()
		cachedLat := herd(cached.URL, scratch)
		hits := float64(obs.M.CacheHits.Value() - hitsBefore)
		uncachedP99, cachedP99 = p99(uncachedLat), p99(cachedLat)
		hitRate = hits / float64(len(cachedLat))
	}
	b.ReportMetric(uncachedP99, "p99-uncached-ms")
	b.ReportMetric(cachedP99, "p99-cached-ms")
	if cachedP99 > 0 {
		b.ReportMetric(uncachedP99/cachedP99, "p99-speedup")
	}
	b.ReportMetric(hitRate, "hit-rate")
	b.ReportMetric(replayRuns, "replay-runs")
}
