package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The metrics model is deliberately small: pre-registered, unlabeled
// counters, gauges, and histograms with atomic hot paths. No labels means
// no per-sample allocation and bounded cardinality by construction — the
// per-run and per-pool breakdowns that would want labels are served by
// the RunResult metrics snapshot and PoolStats instead (see DESIGN.md
// "Observability" for the cardinality rules).

// A Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into fixed upper-bound buckets.
// Observe is atomic and allocation-free: a linear scan over a dozen
// bounds plus three atomic adds.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds; +Inf is implicit
	counts     []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets are the default upper bounds (seconds) for duration
// histograms: 100µs to 10s, roughly geometric.
var LatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ErrorBuckets are upper bounds for relative-error histograms (unitless).
var ErrorBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// A Registry holds a fixed set of metrics and renders them in Prometheus
// text exposition format. Registration happens at package init; the
// scrape path takes no locks beyond the registration mutex.
type Registry struct {
	mu     sync.Mutex
	order  []string
	byName map[string]any // *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Default is the process-wide registry every built-in metric registers
// into; /metrics on serve and worker scrape it.
var Default = NewRegistry()

func (r *Registry) register(name string, m any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.byName[name] = m
	r.order = append(r.order, name)
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// NewHistogram registers a histogram with the given ascending upper
// bounds (a final +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{name: name, help: help, bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.register(name, h)
	return h
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered metric in the text exposition
// format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	byName := make(map[string]any, len(r.byName))
	for k, v := range r.byName {
		byName[k] = v
	}
	r.mu.Unlock()
	for _, name := range names {
		var err error
		switch m := byName[name].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", m.name, m.help, m.name, m.name, m.Value())
		case *Histogram:
			if _, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", m.name, m.help, m.name); err != nil {
				return err
			}
			cum := int64(0)
			for i, b := range m.bounds {
				cum += m.counts[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", m.name, fmtFloat(b), cum); err != nil {
					return err
				}
			}
			cum += m.counts[len(m.bounds)].Load()
			_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				m.name, cum, m.name, fmtFloat(m.Sum()), m.name, m.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Snapshot flattens the registry into name → value: counters and gauges
// by name, histograms as <name>_count and <name>_sum. Keys sort
// lexically so snapshots diff cleanly in BENCH.json and RunResult.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	byName := make(map[string]any, len(r.byName))
	for k, v := range r.byName {
		byName[k] = v
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(byName)+4)
	for name, m := range byName {
		switch m := m.(type) {
		case *Counter:
			out[name] = float64(m.Value())
		case *Gauge:
			out[name] = float64(m.Value())
		case *Histogram:
			out[name+"_count"] = float64(m.Count())
			out[name+"_sum"] = m.Sum()
		}
	}
	return out
}

// SortedKeys returns the snapshot's keys in the pinned lexical order.
func SortedKeys(snap map[string]float64) []string {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// M holds every built-in metric, registered once into Default. Hot paths
// touch these fields directly — no map lookups, no allocation.
var M = struct {
	RunsStarted       *Counter
	RunsFinished      *Counter
	RunsCanceled      *Counter
	RunsInflight      *Gauge
	SegmentSetup      *Histogram
	SegmentDrain      *Histogram
	PoolBuilt         *Counter
	PoolReused        *Counter
	IncrementalWarm   *Counter
	IncrementalCold   *Counter
	IncrementalReuse  *Counter
	EstimatorError    *Histogram
	WireBytes         *Counter
	HeartbeatFailures *Counter
	WorkerRedials     *Counter
	CacheHits         *Counter
	CacheMisses       *Counter
	CacheEvictions    *Counter
	CacheReplays      *Counter
	CacheDedup        *Counter
	AdmissionAccepted *Counter
	AdmissionQueued   *Counter
	AdmissionRejected *Counter
	AdmissionWait     *Histogram
}{
	RunsStarted:       Default.NewCounter("graphsurge_runs_started_total", "Collection runs admitted by the engine or coordinator."),
	RunsFinished:      Default.NewCounter("graphsurge_runs_finished_total", "Collection runs completed successfully."),
	RunsCanceled:      Default.NewCounter("graphsurge_runs_canceled_total", "Collection runs ended by cancellation or error."),
	RunsInflight:      Default.NewGauge("graphsurge_runs_inflight", "Collection runs currently executing."),
	SegmentSetup:      Default.NewHistogram("graphsurge_segment_setup_seconds", "Replica setup latency per segment.", LatencyBuckets),
	SegmentDrain:      Default.NewHistogram("graphsurge_segment_drain_seconds", "Dataflow drain latency per segment.", LatencyBuckets),
	PoolBuilt:         Default.NewCounter("graphsurge_pool_built_total", "Replica runners built from scratch."),
	PoolReused:        Default.NewCounter("graphsurge_pool_reused_total", "Replica runners reused from a warm pool."),
	IncrementalWarm:   Default.NewCounter("graphsurge_incremental_warm_total", "Incremental re-runs served by a warm replica (hit)."),
	IncrementalCold:   Default.NewCounter("graphsurge_incremental_cold_total", "Incremental runs that built their replica cold (miss)."),
	IncrementalReuse:  Default.NewCounter("graphsurge_incremental_recycled_total", "Cold incremental replicas built on a reset runner instead of a new dataflow."),
	EstimatorError:    Default.NewHistogram("graphsurge_estimator_relative_error", "Relative error |predicted-actual|/actual of the adaptive optimizer's per-view work predictions.", ErrorBuckets),
	WireBytes:         Default.NewCounter("graphsurge_wire_bytes_total", "Bytes of encoded shard payloads shipped to cluster workers."),
	HeartbeatFailures: Default.NewCounter("graphsurge_heartbeat_failures_total", "Worker heartbeats missed past the failure threshold."),
	WorkerRedials:     Default.NewCounter("graphsurge_worker_redials_total", "Dead cluster workers successfully redialed."),
	CacheHits:         Default.NewCounter("graphsurge_tenant_cache_hits_total", "Serving-cache lookups answered by a stored run result."),
	CacheMisses:       Default.NewCounter("graphsurge_tenant_cache_misses_total", "Serving-cache lookups that executed the run."),
	CacheEvictions:    Default.NewCounter("graphsurge_tenant_cache_evictions_total", "Cached run results dropped by LRU pressure or invalidation."),
	CacheReplays:      Default.NewCounter("graphsurge_tenant_cache_replays_total", "Runs served by differential suffix replay on a warm replica."),
	CacheDedup:        Default.NewCounter("graphsurge_tenant_dedup_total", "Identical concurrent runs coalesced onto one execution (single-flight joins)."),
	AdmissionAccepted: Default.NewCounter("graphsurge_tenant_admission_accepted_total", "Requests granted an execution slot, immediately or after queueing."),
	AdmissionQueued:   Default.NewCounter("graphsurge_tenant_admission_queued_total", "Requests that waited in a tenant's bounded admission queue."),
	AdmissionRejected: Default.NewCounter("graphsurge_tenant_admission_rejected_total", "Requests refused by quota: rate limit, queue capacity, or queue deadline."),
	AdmissionWait:     Default.NewHistogram("graphsurge_tenant_queue_wait_seconds", "Time a request spent waiting for a per-tenant execution slot.", LatencyBuckets),
}
