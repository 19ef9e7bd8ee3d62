package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"graphsurge/internal/core"
)

// env is what a workload's set-up may depend on: the seed and scale its
// inputs are generated from and a scratch directory inside the checkout.
type env struct {
	seed int64
	sc   scale
	dir  string
}

// workload is one named set of inputs with the reason it was chosen. setup
// does everything the paper's users do before they ask for results: generate
// the inputs from the seed, write them as CSV, start the engine, load the
// graph and create any collection the pass does not itself create.
type workload struct {
	name, why string
	setup     func(ctx context.Context, e env) (instance, error)
}

// instance is a set-up workload ready to run passes.
type instance interface {
	// pass runs the workload's fixed operation list once, reporting every
	// operation through r.
	pass(ctx context.Context, r *recorder)
	// verify runs the equivalence checks, outside the timed passes.
	verify(ctx context.Context, r *recorder)
	// layers reports the workload's per-layer metrics from the traced pass
	// and from whatever extra measurement only the traced run takes;
	// untraced is the median wall time of the untraced passes.
	layers(ctx context.Context, r *recorder, traced *passStats, untraced time.Duration) map[string]float64
	// inputsHash identifies the generated input files: workloads that print
	// the same hash ran byte-identical inputs.
	inputsHash() string
	close()
}

// scheduled is implemented by the request-shaped workloads. Their state
// moves forward with every pass (the graph grows, the cache fills), so a pass
// count that depended on the machine's speed would change what the median
// pass looks like; they run a fixed schedule sized from the requested
// seconds instead.
type scheduled interface {
	passesFor(secs float64) int
}

// passStats is what one pass yields: wall time and heap traffic measured
// around it, per-request latencies, and the sums of what the program's
// public return values reported.
type passStats struct {
	wall  time.Duration
	alloc uint64
	// lat is every request's latency in ms; kinds holds the same samples
	// grouped by a workload-chosen label (mutate / run, hit / miss / replay).
	lat   []float64
	kinds map[string][]float64
	// Sums over the pass's RunResults.
	work     int64
	setup    time.Duration
	drain    time.Duration
	laneWall time.Duration // Σ run wall × replicas the run could use
	splits   int
	// counts holds workload-specific counters (cache statuses, bytes).
	counts map[string]float64
}

// recorder is how a pass reports operations: each one is timed, counted as
// attempted, counted as failed when it errs, and wrapped in a span when the
// pass is traced.
type recorder struct {
	tr     *tracer
	parent int

	mu        sync.Mutex
	ps        *passStats
	attempted int
	failed    int
	errs      []string
}

// begin points the recorder at a fresh pass.
func (r *recorder) begin(tr *tracer, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr, r.parent = tr, parent
	r.ps = &passStats{kinds: map[string][]float64{}, counts: map[string]float64{}}
}

func (r *recorder) take() *passStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.ps
	r.ps, r.tr, r.parent = nil, nil, 0
	return ps
}

// op runs one operation — one Session.Do, HTTP request or GVDL batch. kind
// labels its latency sample; layer names the program layer the call enters.
func (r *recorder) op(name, kind, layer string, fn func(span int) error) {
	sp := r.tr.start(r.parent, name, layer)
	t0 := time.Now()
	err := fn(sp)
	d := time.Since(t0)
	r.tr.end(sp)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", name, err))
	}
	if r.ps != nil {
		r.ps.lat = append(r.ps.lat, millis(d))
		if kind != "" {
			r.ps.kinds[kind] = append(r.ps.kinds[kind], millis(d))
		}
	}
}

// check counts one equivalence comparison.
func (r *recorder) check(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", name, err))
	}
}

// fail records a failed operation; the caller holds r.mu.
func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, msg)
	}
}

// count adds to one of the pass's workload-specific counters.
func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ps != nil {
		r.ps.counts[name] += v
	}
}

// sample files a latency under a label only known once the response says
// what happened (a cache status).
func (r *recorder) sample(kind string, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ps != nil {
		r.ps.kinds[kind] = append(r.ps.kinds[kind], ms)
	}
}

// run folds one RunResult into the pass: the exact work count, the segment
// timings the result reports, and — when traced — one leaf span per segment
// part under the operation's span. lanes is how many replicas the run could
// use at once.
func (r *recorder) run(sp int, res *core.RunResult, lanes int) {
	if n := len(res.Segments); n < lanes {
		lanes = n
	}
	if lanes < 1 {
		lanes = 1
	}
	var setup, drain time.Duration
	leaves := make([]leaf, 0, len(res.Segments))
	for _, s := range res.Segments {
		setup += s.Setup
		drain += s.Drain
		leaves = append(leaves, leaf{
			{"segment setup", "core.setup", s.Setup},
			{"segment drain", "dataflow", s.Drain},
		})
	}
	if len(res.Segments) == 0 {
		// Incremental and replayed runs step one warm replica and report no
		// segments; their per-view step times are the drain.
		drain = res.Total
		leaves = append(leaves, leaf{{"replica steps", "dataflow", res.Total}})
	}
	r.tr.reported(sp, lanes, leaves)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ps == nil {
		return
	}
	r.ps.work += res.MaxWork()
	r.ps.setup += setup
	r.ps.drain += drain
	r.ps.laneWall += res.Wall * time.Duration(lanes)
	r.ps.splits += res.Splits
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's outcome, in the shape BENCHMARK.json's contract
// asks for on the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the contract line: printed above it.
	inputs  string
	passes  int
	samples int
	walls   []float64            // timed pass wall times, s
	kinds   map[string][]float64 // timed latencies by operation kind, ms
	errs    []string
	self    map[string]time.Duration
}

// setupReps is how often a run sets the workload up: set-up time is short,
// so its median over several repetitions is what is reported.
const setupReps = 5

// measure runs one workload: set-up (repeated, timed), one untimed warm-up
// pass, untraced timed passes for about secs seconds, the traced pass and
// layer probes when traced, and the equivalence checks.
func measure(ctx context.Context, w workload, e env, secs float64, traced bool, outDir string) (*report, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		// A directory of its own: a disk-backed engine must not find what an
		// earlier set-up persisted.
		sub, err := os.MkdirTemp(e.dir, w.name+".")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(ctx, env{seed: e.seed, sc: e.sc, dir: sub})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	rec := &recorder{}
	runPass(ctx, inst, rec, nil, 0) // warm-up: pools built, caches filled

	var passes []*passStats
	minPasses := 3
	if traced {
		// The traced run only needs the untraced median as the base of the
		// tracing overhead; the end-to-end numbers come from untraced runs.
		secs, minPasses = secs/2, 2
	}
	sch, fixed := inst.(scheduled)
	if fixed {
		minPasses = max(minPasses, sch.passesFor(secs))
	}
	for start := time.Now(); len(passes) < minPasses || (!fixed && time.Since(start).Seconds() < secs); {
		passes = append(passes, runPass(ctx, inst, rec, nil, 0))
	}
	var walls, allocs, lat []float64
	kinds := map[string][]float64{}
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
		lat = append(lat, p.lat...)
		for k, xs := range p.kinds {
			kinds[k] = append(kinds[k], xs...)
		}
	}
	rep := &report{Metrics: map[string]metric{}, inputs: inst.inputsHash(), passes: len(passes), samples: len(lat), walls: walls, kinds: kinds}

	if traced {
		tr := newTracer()
		root := tr.start(0, w.name, "bench")
		tp := runPass(ctx, inst, rec, tr, root)
		tr.end(root)
		vals := inst.layers(ctx, rec, tp, time.Duration(median(walls)*float64(time.Second)))
		for k, v := range probes(e) {
			vals[k] = v
		}
		vals["bench.trace_overhead"] = tp.wall.Seconds() / median(walls)
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
		}
		spans := tr.snapshot()
		rep.self = layerSelf(spans)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(outDir, "trace."+w.name+".json"), spans); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics["run_s"] = metric{median(walls), "s"}
		rep.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
		rep.Metrics["req_p90_ms"] = metric{percentile(lat, 90), "ms"}
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
	}

	inst.verify(ctx, rec)
	rep.Attempted, rep.Failed, rep.errs = rec.attempted, rec.failed, rec.errs
	rep.Correct = rec.failed == 0
	return rep, nil
}

// runPass runs one pass with the heap quiesced first, so a collection left
// over from the previous pass is not charged to this one.
func runPass(ctx context.Context, inst instance, rec *recorder, tr *tracer, root int) *passStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.start(root, "pass", "bench")
	rec.begin(tr, sp)
	t0 := time.Now()
	inst.pass(ctx, rec)
	wall := time.Since(t0)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	ps := rec.take()
	ps.wall, ps.alloc = wall, m1.TotalAlloc-m0.TotalAlloc
	return ps
}

// print writes a report's metrics by name with their units, then what went
// wrong, then the per-layer self-time table of a traced run.
func (rep *report) print(w *os.File, name string) {
	fmt.Fprintf(w, "workload %s: inputs %s, %d timed passes, %d request samples\n", name, rep.inputs, rep.passes, rep.samples)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if rep.Metrics[n].Value == 0 {
			continue // a layer this workload does not enter; the JSON carries the 0
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if q1, q3 := quartiles(rep.walls); len(rep.walls) > 1 {
		fmt.Fprintf(w, "  pass wall time quartiles     %14.6g .. %.6g s\n", q1, q3)
	}
	kinds := make([]string, 0, len(rep.kinds))
	for k := range rep.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  p50 of %-21s %14.6g ms  (%d samples)\n", k, median(rep.kinds[k]), len(rep.kinds[k]))
	}
	fmt.Fprintf(w, "  %-28s %14d\n  %-28s %14d\n", "ops_attempted", rep.Attempted, "ops_failed", rep.Failed)
	for _, e := range rep.errs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	if rep.self != nil {
		layers := make([]string, 0, len(rep.self))
		for l := range rep.self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "  per-layer self time of the traced pass (span minus children):\n")
		for _, l := range layers {
			fmt.Fprintf(w, "    %-20s %12.6f s\n", l, rep.self[l].Seconds())
		}
	}
}
