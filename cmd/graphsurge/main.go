// Command graphsurge is the Graphsurge CLI: load property graphs from CSV,
// execute GVDL statements to create views, view collections and aggregate
// views, and run analytics computations over them with the diff-only,
// scratch or adaptive execution strategies.
//
// Usage:
//
//	graphsurge load -name Calls -nodes nodes.csv -edges edges.csv [-data dir]
//	graphsurge query -data dir 'create view ... / create view collection ...'
//	graphsurge run -data dir -collection NAME -algorithm wcc [-mode adaptive]
//	graphsurge worker -listen :7077
//	graphsurge serve -listen :7080 -data dir
//
// The -data directory persists loaded graphs AND materialized views between
// invocations (the paper's Graph Store and View Store): a collection defined
// by `query` can be run later by `run -collection`.
//
// `worker` starts a cluster worker; `run -cluster host:port,...` shards a
// static-plan collection run across those workers and merges the results
// (see internal/cluster).
//
// `serve` exposes the same operations as HTTP+JSON (see internal/server):
// every subcommand here and every HTTP request goes through the one typed
// core.Session API, so the two front-ends cannot drift apart.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/cluster"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/obs"
	"graphsurge/internal/server"
	"graphsurge/internal/splitting"
	"graphsurge/internal/tenant"
	"graphsurge/internal/view"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "load":
		err = cmdLoad(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "mutate":
		err = cmdMutate(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphsurge: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  graphsurge load  -name NAME -edges FILE [-nodes FILE] [-data DIR]
  graphsurge query -data DIR [-ordering optimize] 'GVDL statements...'
  graphsurge run   -data DIR (-collection NAME | -view NAME) -algorithm ALG [-gvdl STMTS]
                   [-mode diff|scratch|adaptive] [-workers N] [-parallel N] [-weight PROP]
                   [-schedule fifo|lpt] [-incremental] [-source ID] [-ordering optimize]
                   [-cluster HOST:PORT,...] [-trace] [-progress]
                   [-profile cpu|heap] [-profile-out FILE]
  graphsurge mutate -data DIR -graph NAME -json FILE
  graphsurge gen    -out DIR [-nodes N] [-edges M] [-days D] [-seed S]
                    [-split-day K] [-name NAME]
  graphsurge worker -listen ADDR [-workers N] [-parallel N]
                    [-http ADDR] [-log-level LEVEL]
  graphsurge serve  -listen ADDR [-data DIR] [-workers N] [-parallel N]
                    [-ordering optimize] [-cluster HOST:PORT,...]
                    [-log-level LEVEL] [-pprof]
algorithms: wcc, bfs, sssp, pagerank, scc, degree
-parallel runs up to N independent collection segments concurrently, each on
its own dataflow replica (scratch mode: every view; adaptive mode: as the
optimizer declares split points, the predicted next one seeded ahead of the
decision on an idle replica); 0 uses the engine default of 1. Results
are identical at any setting. Replicas are pooled per (algorithm, workers)
and recycled via in-place reset, so repeated runs skip dataflow
construction; per-segment replica setup and drain times are printed
alongside the per-view lines, followed by per-pool replica statistics.
-schedule lpt dispatches a static plan's segments largest first (by seed
view size plus difference sizes; fifo keeps collection order) without
changing results.
-cluster shards a static-plan run (diff or scratch) across the listed
worker processes: segments are dispatched in -schedule order to whichever
worker slot is free, shipped as self-contained shards, and merged in
collection order — results are identical to a local run. A worker that
dies mid-run has its shard re-run on this process, which also takes over
the rest once no worker is left, so the run completes regardless; dead
workers are redialed at the start of each later run. Adaptive runs plan online and
always execute locally. Start workers with "graphsurge worker -listen
:PORT"; workers hold no data (shards carry their own edges), -workers sets
each replica's dataflow parallelism and -parallel how many shards the
worker runs concurrently.
mutate applies one transactional edge insert/delete batch (a JSON
MutateRequest; "-" reads stdin) to a base graph and incrementally maintains
every materialized view, collection and aggregate view over it. The GVDL
form ("apply insert 2->0 [p = v] delete 0->1 to G") does the same through
query. run -incremental re-runs a computation on a warm incremental
replica: the first run absorbs the whole collection, later runs execute
only the mutation deltas applied since (the summary line says
"incremental").
gen writes a datagen.Temporal graph as CSV plus a JSONL stream of mutation
envelopes (one per day from -split-day on), the replay input for dynamic
workloads: load the CSVs, then POST each line to serve /v1/do.
serve exposes the same operations over HTTP: POST /v1/do accepts a JSON
request ({"statements":...}, {"run":...}, {"runView":...}, {"load":...},
{"mutate":...}, {"poolStats":{}}); run responses stream as NDJSON — segment events as they
finish, then the summary and one result record per vertex. Disconnecting
mid-run cancels it (segment dispatch stops, replicas return to their
pools), locally and with -cluster. Interrupting a run (Ctrl-C) cancels the
same way.
Observability: every run is traced (plan, segment, shard and worker spans
under one run span — cluster workers stitch their spans into the
coordinator's trace). run -trace prints the span tree; -progress streams a
line per finished segment; -profile cpu|heap writes a pprof profile of the
run. serve exposes Prometheus metrics at GET /metrics and finished-run
traces at GET /v1/traces/RUNID (NDJSON; run IDs appear in run summaries);
-pprof mounts /debug/pprof/. worker -http ADDR serves the same /metrics and
pprof for the worker process. -log-level enables structured logs on stderr
for serve (request/run events) and worker (shard events).`)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	name := fs.String("name", "", "graph name")
	nodes := fs.String("nodes", "", "node CSV file (optional)")
	edges := fs.String("edges", "", "edge CSV file")
	data := fs.String("data", "graphsurge-data", "data directory")
	fs.Parse(args)
	if *name == "" || *edges == "" {
		return fmt.Errorf("load: -name and -edges are required")
	}
	e, err := core.NewEngine(core.Options{DataDir: *data})
	if err != nil {
		return err
	}
	// No runCtx here: a CSV import has no cancellation points, so capturing
	// SIGINT would only swallow the first Ctrl-C.
	resp, err := e.NewSession().Do(context.Background(), &core.LoadGraphRequest{
		Name: *name, NodesPath: *nodes, EdgesPath: *edges,
	})
	if err != nil {
		return err
	}
	g := resp.(*core.GraphLoaded)
	fmt.Printf("loaded %s: %d nodes, %d edges\n", g.Name, g.Nodes, g.Edges)
	return nil
}

func engineFor(data string, ordering string, workers, parallel int) (*core.Engine, error) {
	mode := view.OrderAsWritten
	if ordering == "optimize" {
		mode = view.OrderOptimized
	}
	return core.NewEngine(core.Options{DataDir: data, Workers: workers, Parallelism: parallel, Ordering: mode})
}

// runCtx is the CLI's request context: canceled on Ctrl-C, so an
// interrupted run stops segment dispatch and returns its replicas instead
// of being killed mid-step. Signal capture ends with the first interrupt —
// cancellation lands at view boundaries, so a second Ctrl-C during a long
// fixpoint must fall through to the default exit instead of being
// swallowed.
func runCtx() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	data := fs.String("data", "graphsurge-data", "data directory")
	ordering := fs.String("ordering", "", `"optimize" to run the collection ordering optimizer`)
	workers := fs.Int("workers", 1, "dataflow workers")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("query: GVDL statements required")
	}
	e, err := engineFor(*data, *ordering, *workers, 0)
	if err != nil {
		return err
	}
	// Statements only honor cancellation between statements; a single
	// materialization is uninterruptible, so query keeps the default SIGINT
	// exit rather than capturing it.
	resp, err := e.NewSession().Do(context.Background(), &core.StatementsRequest{Src: strings.Join(fs.Args(), " ")})
	if sr, ok := resp.(*core.StatementsResponse); ok {
		// Statements that completed before an error still materialized;
		// report them either way.
		for _, res := range sr.Results {
			fmt.Println(res.String())
		}
	}
	return err
}

// coordinatorFor registers the comma-separated -cluster worker addresses on
// a fresh coordinator over the given engine — shared by `run -cluster` and
// `serve -cluster` so the two front-ends register workers identically. A
// worker that cannot be reached fails registration rather than running
// silently degraded; the caller owns Close. ctx bounds the registration
// dials, so Ctrl-C during startup aborts instead of waiting out each dial.
func coordinatorFor(ctx context.Context, e *core.Engine, addrs string, log *slog.Logger) (*cluster.Coordinator, error) {
	coord := cluster.NewCoordinator(e, cluster.Options{Logger: log})
	for _, addr := range strings.Split(addrs, ",") {
		if addr = strings.TrimSpace(addr); addr == "" {
			continue
		}
		if err := coord.AddWorker(ctx, addr); err != nil {
			coord.Close()
			return nil, err
		}
	}
	return coord, nil
}

// algorithm resolves the -algorithm flag through the analytics spec
// registry — the same registry cluster workers resolve shipped computations
// with, so the CLI and the wire agree on the algorithm set by construction.
// mpsp is registry-only: the CLI has no flag for its pair list, and
// resolving it with zero pairs would silently compute nothing.
func algorithm(name string, source uint64) (analytics.Computation, error) {
	if name == "mpsp" {
		return nil, fmt.Errorf("algorithm mpsp needs a pair list and is only available to embedding callers")
	}
	return analytics.Spec{Algorithm: name, Source: source}.Resolve()
}

// cmdMutate applies one transactional mutation batch from a JSON file (or
// stdin with "-") through the same typed MutateRequest the HTTP server
// accepts. The batch commits in the graph store's journal and every
// materialized artifact over the graph is incrementally maintained before
// the summary line prints.
func cmdMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	data := fs.String("data", "graphsurge-data", "data directory")
	graphName := fs.String("graph", "", "base graph to mutate (overrides the request's graph field)")
	jsonPath := fs.String("json", "", `MutateRequest JSON file ("-" reads stdin)`)
	fs.Parse(args)
	if *jsonPath == "" {
		return fmt.Errorf("mutate: -json is required")
	}
	var r io.Reader = os.Stdin
	if *jsonPath != "-" {
		f, err := os.Open(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var req core.MutateRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("mutate: decoding request: %w", err)
	}
	if *graphName != "" {
		req.Graph = *graphName
	}
	e, err := core.NewEngine(core.Options{DataDir: *data})
	if err != nil {
		return err
	}
	resp, err := e.NewSession().Do(context.Background(), &req)
	if err != nil {
		return err
	}
	core.WriteMutation(os.Stdout, resp.(*core.MutationApplied))
	return nil
}

// cmdGen writes a datagen.Temporal graph as replayable dynamic-workload
// inputs: a node CSV (dense numeric IDs in order, so internal IDs equal the
// file's), an edge CSV holding the days before -split-day, and a JSONL file
// with one {"mutate": ...} request envelope per remaining day — the inserts
// for that day as one transactional batch. The files drive the mutation
// replay smoke: load the CSVs, then POST each JSONL line to serve /v1/do.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory")
	nodes := fs.Int("nodes", 200, "nodes")
	edges := fs.Int("edges", 2000, "edges")
	days := fs.Int("days", 10, "timestamp range (edge ts is 0..days-1)")
	seed := fs.Int64("seed", 1, "generator seed")
	splitDay := fs.Int("split-day", 0, "first day emitted as mutations (0 = last quarter of the range)")
	name := fs.String("name", "temporal", "graph name in the mutation envelopes")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	if *splitDay <= 0 {
		*splitDay = *days - *days/4
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: *nodes, Edges: *edges, Days: *days, Seed: *seed})
	tsCol, _ := g.EdgeProps.ColumnIndex("ts")
	durCol, _ := g.EdgeProps.ColumnIndex("duration")
	ts := g.EdgeProps.Cols[tsCol].Ints
	dur := g.EdgeProps.Cols[durCol].Ints

	var nodesCSV strings.Builder
	nodesCSV.WriteString("id\n")
	for n := 0; n < g.NumNodes; n++ {
		fmt.Fprintf(&nodesCSV, "%d\n", n)
	}
	if err := os.WriteFile(filepath.Join(*out, "nodes.csv"), []byte(nodesCSV.String()), 0o644); err != nil {
		return err
	}

	var edgesCSV strings.Builder
	edgesCSV.WriteString("src,dst,ts:int,duration:int\n")
	base := 0
	byDay := make(map[int64][]core.EdgeChange)
	for i := range g.Srcs {
		if int(ts[i]) < *splitDay {
			fmt.Fprintf(&edgesCSV, "%d,%d,%d,%d\n", g.Srcs[i], g.Dsts[i], ts[i], dur[i])
			base++
			continue
		}
		byDay[ts[i]] = append(byDay[ts[i]], core.EdgeChange{
			Src: g.Srcs[i], Dst: g.Dsts[i],
			Props: map[string]any{"ts": ts[i], "duration": dur[i]},
		})
	}
	if err := os.WriteFile(filepath.Join(*out, "edges.csv"), []byte(edgesCSV.String()), 0o644); err != nil {
		return err
	}

	var jsonl strings.Builder
	batches := 0
	for day := int64(*splitDay); day < int64(*days); day++ {
		ins := byDay[day]
		if len(ins) == 0 {
			continue
		}
		env := map[string]any{"mutate": &core.MutateRequest{Graph: *name, Inserts: ins}}
		line, err := json.Marshal(env)
		if err != nil {
			return err
		}
		jsonl.Write(line)
		jsonl.WriteByte('\n')
		batches++
	}
	if err := os.WriteFile(filepath.Join(*out, "mutations.jsonl"), []byte(jsonl.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("gen %s: %d nodes, %d base edges (days 0..%d), %d mutation batches (days %d..%d)\n",
		*name, g.NumNodes, base, *splitDay-1, batches, *splitDay, *days-1)
	return nil
}

// cmdWorker runs a cluster worker: a thin RPC server around an engine whose
// warm runner pools are shared across shard jobs. Workers hold no graph or
// view data — every shard ships its own edges — so -data is optional and
// normally omitted.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", ":7077", "address to serve on")
	workers := fs.Int("workers", 1, "dataflow workers per replica")
	parallel := fs.Int("parallel", 1, "shards run concurrently (advertised capacity)")
	data := fs.String("data", "", "data directory (optional; shards are self-contained)")
	httpAddr := fs.String("http", "", "address for the worker's HTTP observability listener (/metrics, /debug/pprof/); empty disables it")
	logLevel := fs.String("log-level", "", "structured log level on stderr: debug | info | warn | error; empty logs nothing")
	fs.Parse(args)
	e, err := core.NewEngine(core.Options{DataDir: *data, Workers: *workers, Parallelism: *parallel})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := cluster.NewServer(e, *parallel)
	if *logLevel != "" {
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			return err
		}
		srv.SetLogger(obs.NewLogger(os.Stderr, level))
	}
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", obs.MetricsHandler())
		obs.RegisterPprof(mux)
		go http.Serve(hl, mux) //nolint:errcheck // dies with the process, like the RPC listener
		fmt.Printf("worker metrics on %s\n", hl.Addr())
	}
	// Printed once the listener is live, so scripts can wait on this line.
	fmt.Printf("worker listening on %s (capacity %d, workers %d)\n", l.Addr(), *parallel, *workers)
	srv.Serve(l) // serves until the process is killed
	return nil
}

// cmdServe runs the HTTP front-end: the typed Session API as JSON over
// POST /v1/do, run results streamed as NDJSON (see internal/server). With
// -cluster, collection runs shard across the listed workers exactly as
// `run -cluster` does — same Session, same coordinator.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":7080", "address to serve HTTP on")
	data := fs.String("data", "graphsurge-data", "data directory")
	workers := fs.Int("workers", 1, "dataflow workers per replica")
	parallel := fs.Int("parallel", 1, "default run parallelism (engine default)")
	ordering := fs.String("ordering", "", `"optimize" to run the collection ordering optimizer`)
	clusterAddrs := fs.String("cluster", "", "comma-separated worker addresses to shard static-plan runs across")
	logLevel := fs.String("log-level", "", "structured log level on stderr: debug | info | warn | error; empty logs nothing")
	pprof := fs.Bool("pprof", false, "mount /debug/pprof/ on the HTTP listener")
	tenantConc := fs.Int("tenant-concurrency", 0, "executions a tenant may have in flight at once (0 = unlimited)")
	tenantQueue := fs.Int("tenant-queue", 16, "over-limit requests a tenant may queue for a slot before 503")
	tenantQueueTimeout := fs.Duration("tenant-queue-timeout", 5*time.Second, "longest a queued request waits for a slot before 429 (0 = wait until the client gives up)")
	tenantRate := fs.Float64("tenant-rate", 0, "requests per second each tenant's token bucket refills (0 = unlimited)")
	tenantBurst := fs.Float64("tenant-burst", 0, "token bucket capacity (0 = max(1, -tenant-rate))")
	cacheEntries := fs.Int("cache-entries", 256, "run results the serving cache retains (0 disables caching)")
	cacheReplicas := fs.Int("cache-replicas", 8, "0 disables suffix replay on the engine's warm replicas; any positive value enables it (the engine bounds its own replicas)")
	fs.Parse(args)
	e, err := engineFor(*data, *ordering, *workers, *parallel)
	if err != nil {
		return err
	}
	defer e.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := server.Options{EnablePprof: *pprof}
	opts.Tenant = tenant.New(e, tenant.Options{
		Limits: tenant.Limits{
			MaxConcurrent: *tenantConc,
			MaxQueue:      *tenantQueue,
			QueueTimeout:  *tenantQueueTimeout,
			RatePerSec:    *tenantRate,
			Burst:         *tenantBurst,
		},
		CacheEntries:  *cacheEntries,
		CacheReplicas: *cacheReplicas,
	})
	if *logLevel != "" {
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			return err
		}
		opts.Logger = obs.NewLogger(os.Stderr, level)
	}
	if *clusterAddrs != "" {
		coord, err := coordinatorFor(ctx, e, *clusterAddrs, opts.Logger)
		if err != nil {
			return err
		}
		defer coord.Close()
		opts.Runner = coord
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// Printed once the listener is live, so scripts can wait on this line.
	fmt.Printf("serving on %s (data %s)\n", l.Addr(), *data)
	hs := &http.Server{Handler: server.New(e, opts).Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(l) }()
	select {
	case <-ctx.Done():
		// Interrupt: sever connections so in-flight run contexts cancel and
		// their replicas return to the pools before the process exits.
		hs.Close()
		<-errCh
		return nil
	case err := <-errCh:
		return err
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	data := fs.String("data", "graphsurge-data", "data directory")
	gvdlSrc := fs.String("gvdl", "", "GVDL statements to execute before running")
	collection := fs.String("collection", "", "view collection to run over")
	viewName := fs.String("view", "", "individual filtered view to run over (instead of -collection)")
	algName := fs.String("algorithm", "wcc", "analytics computation")
	modeName := fs.String("mode", "adaptive", "diff | scratch | adaptive")
	workers := fs.Int("workers", 0, "dataflow workers per replica (0 = this engine's default locally, each worker's own -workers on a cluster run)")
	parallel := fs.Int("parallel", 0, "independent collection segments executed concurrently (0 = engine default)")
	schedName := fs.String("schedule", "fifo", "static-plan segment dispatch order: fifo | lpt")
	incremental := fs.Bool("incremental", false, "run on the warm incremental replica (first run absorbs the collection; later runs execute only pending mutation deltas)")
	clusterAddrs := fs.String("cluster", "", "comma-separated worker addresses to shard a static-plan run across")
	weight := fs.String("weight", "", "integer edge property used as weight")
	source := fs.Uint64("source", 0, "source vertex for bfs/sssp")
	ordering := fs.String("ordering", "", `"optimize" to run the collection ordering optimizer`)
	top := fs.Int("top", 10, "print the top-N result vertices")
	trace := fs.Bool("trace", false, "print the run's span tree after the summary")
	progress := fs.Bool("progress", false, "stream segment completion lines as segments finish")
	profile := fs.String("profile", "", "write a pprof profile of the run: cpu | heap")
	profileOut := fs.String("profile-out", "", "profile output path (default graphsurge.<kind>.pprof)")
	fs.Parse(args)
	if *collection == "" && *viewName == "" {
		return fmt.Errorf("run: -collection or -view is required")
	}
	e, err := engineFor(*data, *ordering, *workers, *parallel)
	if err != nil {
		return err
	}
	ctx := runCtx()
	sess := e.NewSession()
	if *gvdlSrc != "" {
		if _, err := sess.Do(ctx, &core.StatementsRequest{Src: *gvdlSrc}); err != nil {
			return err
		}
	}
	comp, err := algorithm(*algName, *source)
	if err != nil {
		return err
	}
	if *viewName != "" {
		resp, err := sess.Do(ctx, &core.RunViewRequest{
			View:        *viewName,
			Computation: comp,
			Workers:     *workers,
			WeightProp:  *weight,
		})
		if err != nil {
			if errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("run: %w (define views with -gvdl or query)", err)
			}
			return err
		}
		vr := resp.(*core.ViewRunResult)
		core.WriteViewRun(os.Stdout, vr)
		core.WriteResults(os.Stdout, vr.Results, *top)
		return nil
	}
	// One mode vocabulary for the -mode flag and HTTP request bodies: both
	// parse through ExecMode.UnmarshalText.
	var mode core.ExecMode
	if err := mode.UnmarshalText([]byte(*modeName)); err != nil {
		return err
	}
	policy, err := splitting.ParsePolicy(*schedName)
	if err != nil {
		return err
	}
	req := &core.RunRequest{
		Collection:  *collection,
		Computation: comp,
		Options: core.RunOptions{
			Mode:        mode,
			Workers:     *workers,
			Parallelism: *parallel,
			WeightProp:  *weight,
			Schedule:    policy,
			Incremental: *incremental,
		},
	}
	// All run output flows through one LockedWriter: each renderer issues its
	// block as a single Write, so -progress lines firing from concurrent
	// segment goroutines interleave with the summary only at block boundaries.
	out := core.NewLockedWriter(os.Stdout)
	if *progress {
		req.Options.OnSegment = func(st core.SegmentStats) { core.WriteSegmentProgress(out, st) }
	}
	var coord *cluster.Coordinator
	if *clusterAddrs != "" {
		if coord, err = coordinatorFor(ctx, e, *clusterAddrs, nil); err != nil {
			return err
		}
		defer coord.Close()
		req.Runner = coord
	}
	var prof *obs.Profile
	if *profile != "" {
		path := *profileOut
		if path == "" {
			path = "graphsurge." + *profile + ".pprof"
		}
		if prof, err = obs.StartProfile(*profile, path); err != nil {
			return err
		}
	}
	resp, err := sess.Do(ctx, req)
	if perr := prof.Stop(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	res := resp.(*core.RunResult)
	core.WriteRunSummary(out, res)
	if coord != nil {
		coord.WriteStats(out)
	}
	core.WritePoolStats(out, e.PoolStats())
	core.WriteResults(out, res.FinalResults(), *top)
	if *trace {
		if tr := e.Traces().Get(res.RunID); tr != nil {
			obs.WriteTree(out, tr.Records())
		}
	}
	return nil
}
