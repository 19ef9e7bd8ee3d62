package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/rpc"
	"sync"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/obs"
	"graphsurge/internal/view"
)

// Options configures a Coordinator's failure detection.
type Options struct {
	// JobTimeout bounds one shard RPC; a worker that blows it is marked
	// dead and the shard re-queues locally (0 = the 10-minute default; < 0
	// disables the deadline).
	JobTimeout time.Duration
	// Heartbeat is the ping interval per worker; a missed ping kills the
	// worker's connection, failing its in-flight shards immediately (0 = the
	// 2-second default; < 0 disables heartbeats).
	Heartbeat time.Duration
	// DialTimeout bounds AddWorker's dial and handshake (0 = 5 seconds).
	DialTimeout time.Duration
	// Logger receives the coordinator's structured membership and failure
	// events (worker registered/killed/redialed, shards re-queued). nil
	// discards them.
	Logger *slog.Logger
}

func (o *Options) defaults() {
	if o.JobTimeout == 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = 2 * time.Second
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
}

// errWorkerDead marks a shard sent to a worker already known dead; it is
// handed back to the engine without another kill.
var errWorkerDead = errors.New("cluster: worker is dead")

// workerConn is one registered worker: its RPC client, advertised capacity,
// and liveness.
type workerConn struct {
	addr       string
	capacity   int
	jobTimeout time.Duration

	mu     sync.Mutex
	client *rpc.Client
	dead   bool
	// lastRedial stamps the most recent failed redial attempt; while a host
	// stays down, at most one run per DialTimeout window pays the dial
	// stall instead of every run.
	lastRedial time.Time
}

func (w *workerConn) alive() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.dead && w.client != nil
}

// cap returns the worker's advertised capacity. Guarded because a redial
// can refresh it (a restarted worker may advertise a different -parallel)
// while another goroutine reads Workers().
func (w *workerConn) cap() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.capacity
}

// revive installs a fresh client on a worker previously marked dead — the
// redial path. A worker that was never killed keeps its existing client and
// the new one is closed.
func (w *workerConn) revive(client *rpc.Client, capacity int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.dead {
		client.Close()
		return
	}
	w.client = client
	w.dead = false
	if capacity >= 1 {
		w.capacity = capacity
	}
}

// kill marks the worker dead and closes its client, which terminates every
// in-flight call on it — their slots see those calls fail and hand the
// shards back to the engine. Idempotent. Used by teardown paths (Close,
// handshake failure) that own the worker outright; failure observers use
// killClient so a stale failure can never execute a freshly redialed
// connection.
func (w *workerConn) kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return
	}
	w.dead = true
	if w.client != nil {
		w.client.Close()
	}
}

// killClient kills the worker only if the given client — the connection the
// caller actually observed failing — is still the worker's current one. A
// failure on a connection that has since been replaced by a redial belongs
// to the old connection; the revived worker is left alone.
func (w *workerConn) killClient(client *rpc.Client) {
	if client == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.client != client {
		return
	}
	w.dead = true
	client.Close()
}

// currentClient snapshots the worker's live connection.
func (w *workerConn) currentClient() (*rpc.Client, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead || w.client == nil {
		return nil, errWorkerDead
	}
	return w.client, nil
}

// callClient issues one RPC on an explicit client, bounded by ctx and a
// deadline. A timeout returns an error without waiting further; the caller
// kills the connection it observed failing, which also terminates the
// abandoned in-flight call. A canceled ctx abandons the call the same way
// but returns ctx's error, so the caller can tell cancellation (leave the
// worker alone) from failure (kill it).
func callClient(ctx context.Context, client *rpc.Client, addr, method string, args, reply any, timeout time.Duration) error {
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	var timeC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case <-call.Done:
		return call.Error
	case <-ctx.Done():
		return ctx.Err()
	case <-timeC:
		return fmt.Errorf("cluster: %s to %s exceeded job deadline %v", method, addr, timeout)
	}
}

// call issues one RPC on the worker's current connection.
func (w *workerConn) call(ctx context.Context, method string, args, reply any, timeout time.Duration) error {
	client, err := w.currentClient()
	if err != nil {
		return err
	}
	return callClient(ctx, client, w.addr, method, args, reply, timeout)
}

// runSegment ships one shard to the worker: the spec is encoded once, sent,
// executed on the worker's engine, and its outcome returned for merging. It
// also returns the connection the call actually used, so a failure observer
// can kill exactly that connection (killClient) and never a redialed
// replacement. Cancellation abandons the in-flight call — the worker
// finishes the shard on its own engine and returns the replica to its pool;
// the coordinator just stops waiting.
func (w *workerConn) runSegment(ctx context.Context, spec *core.SegmentSpec) (*core.SegmentOutcome, *rpc.Client, error) {
	client, err := w.currentClient()
	if err != nil {
		return nil, nil, err
	}
	payload, err := EncodeWire(spec)
	if err != nil {
		return nil, nil, err
	}
	var reply RunSegmentReply
	args := &RunSegmentArgs{Spec: payload, TimeoutMillis: w.jobTimeout.Milliseconds()}
	tr := obs.FromContext(ctx)
	if tr != nil {
		// Ship the trace context (the caller's shard span) so the worker's
		// spans come back parented under it.
		args.RunID = tr.RunID()
		args.Trace = obs.CurrentSpanContext(ctx)
	}
	obs.M.WireBytes.Add(int64(len(payload)))
	if err := callClient(ctx, client, w.addr, ServiceName+".RunSegment", args, &reply, w.jobTimeout); err != nil {
		return nil, client, err
	}
	if tr != nil {
		tr.AddRecords(reply.Spans)
	}
	// Stamp what actually crossed the network: the encoded spec size, under
	// the columnar edge codec. The worker can't know it (it sees the payload
	// after transport), so the coordinator records it on the way back.
	reply.Outcome.Segment.WireBytes = len(payload)
	return &reply.Outcome, client, nil
}

// RunStats describes how the last RunOn was distributed —
// observability for operators and the integration tests' requeue assertions.
type RunStats struct {
	// Remote counts shards completed per worker address.
	Remote map[string]int
	// Local counts shards of a sharded run that the coordinator's own engine
	// executed: the ones a worker failed, and any that were still undispatched
	// when the last worker died. A fully local fallback run records nothing.
	Local int
	// Requeued counts shards that failed on a worker and were handed back to
	// the engine's local replicas.
	Requeued int
	// Dead lists workers declared dead during the run.
	Dead []string
	// WireBytes totals the encoded payload bytes of the shards workers
	// completed (local shards ship nothing).
	WireBytes int
}

// Coordinator is the cluster's roster, RPC and failure detection: it keeps
// the registered workers, redials the dead ones, heartbeats the live ones,
// and lends each run one core.SegmentRunner slot per unit of live worker
// capacity. The run itself — planning, dispatch order, the local replicas
// that absorb a failed worker's shards, estimator feedback, merging —
// belongs to the engine it wraps (core.Engine.RunSharded).
type Coordinator struct {
	eng  *core.Engine
	opts Options
	log  *slog.Logger

	mu      sync.Mutex
	workers []*workerConn
	stats   RunStats
}

// NewCoordinator creates a coordinator around a local engine.
func NewCoordinator(eng *core.Engine, opts Options) *Coordinator {
	opts.defaults()
	log := opts.Logger
	if log == nil {
		log = obs.Discard()
	}
	return &Coordinator{eng: eng, opts: opts, log: log}
}

// dialWorker dials an address and completes the Hello handshake, returning
// the connected client and the worker's advertised capacity — shared by
// initial registration (AddWorker) and per-run redial of dead workers. ctx
// bounds the dial and handshake alongside DialTimeout, so a canceled run
// stops redialing immediately.
func (c *Coordinator) dialWorker(ctx context.Context, addr string) (*rpc.Client, int, error) {
	dialer := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: dialing worker %s: %w", addr, err)
	}
	client := rpc.NewClient(conn)
	probe := &workerConn{addr: addr, client: client}
	var hello HelloReply
	if err := probe.call(ctx, ServiceName+".Hello", &HelloArgs{Version: ProtocolVersion}, &hello, c.opts.DialTimeout); err != nil {
		client.Close()
		return nil, 0, fmt.Errorf("cluster: handshake with worker %s: %w", addr, err)
	}
	if hello.Version != ProtocolVersion {
		client.Close()
		return nil, 0, fmt.Errorf("cluster: worker %s speaks protocol %d, coordinator %d", addr, hello.Version, ProtocolVersion)
	}
	capacity := hello.Capacity
	if capacity < 1 {
		capacity = 1
	}
	return client, capacity, nil
}

// AddWorker dials and registers a worker. The Hello handshake pins the
// protocol version and learns the worker's capacity — how many shards may
// be in flight on it concurrently. ctx bounds the dial and handshake.
func (c *Coordinator) AddWorker(ctx context.Context, addr string) error {
	client, capacity, err := c.dialWorker(ctx, addr)
	if err != nil {
		return err
	}
	w := &workerConn{addr: addr, client: client, capacity: capacity, jobTimeout: c.opts.JobTimeout}
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	c.log.Info("cluster: worker registered", obs.WorkerID(addr), slog.Int("capacity", capacity))
	return nil
}

// redialDead attempts to re-register every dead worker — called at the
// start of each run, so a worker that crashed (or was restarted) during one
// run rejoins the cluster on the next instead of being dropped for the
// coordinator's lifetime. Dials run concurrently (one crashed endpoint
// costs one DialTimeout regardless of how many are down) and are skipped
// entirely when ctx is already canceled. Failures are silent: the worker
// simply stays dead for this run and is retried on the next one.
func (c *Coordinator) redialDead(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	now := time.Now()
	c.mu.Lock()
	var dead []*workerConn
	for _, w := range c.workers {
		if w.alive() {
			continue
		}
		w.mu.Lock()
		recent := !w.lastRedial.IsZero() && now.Sub(w.lastRedial) < c.opts.DialTimeout
		w.mu.Unlock()
		if !recent {
			dead = append(dead, w)
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, w := range dead {
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			client, capacity, err := c.dialWorker(ctx, w.addr)
			if err != nil {
				w.mu.Lock()
				w.lastRedial = now
				w.mu.Unlock()
				return
			}
			if ctx.Err() != nil {
				client.Close()
				return
			}
			w.revive(client, capacity)
			obs.M.WorkerRedials.Inc()
			c.log.Info("cluster: worker redialed", obs.WorkerID(w.addr), slog.Int("capacity", capacity))
		}(w)
	}
	wg.Wait()
}

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	Addr     string
	Capacity int
	Alive    bool
}

// Workers lists the registered workers and their liveness.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerInfo{Addr: w.addr, Capacity: w.cap(), Alive: w.alive()}
	}
	return out
}

// Stats returns how the most recent RunOn was distributed. The
// returned value is a deep copy; callers may hold it across later runs.
func (c *Coordinator) Stats() RunStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Remote = make(map[string]int, len(c.stats.Remote))
	for addr, n := range c.stats.Remote {
		out.Remote[addr] = n
	}
	out.Dead = append([]string(nil), c.stats.Dead...)
	return out
}

// WriteStats renders the coordinator's worker roster and the last run's
// shard distribution as the CLI's text lines — the cluster part of the
// typed-response rendering layer (see core's render.go).
func (c *Coordinator) WriteStats(w io.Writer) {
	cs := c.Stats()
	for _, wi := range c.Workers() {
		state := "alive"
		if !wi.Alive {
			state = "dead"
		}
		fmt.Fprintf(w, "cluster worker %s: capacity=%d %s, %d shards\n",
			wi.Addr, wi.Capacity, state, cs.Remote[wi.Addr])
	}
	fmt.Fprintf(w, "cluster: %d shards local, %d re-queued, %d bytes shipped\n", cs.Local, cs.Requeued, cs.WireBytes)
}

// Close disconnects every worker. Worker processes are unaffected — they
// keep serving other coordinators.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		w.kill()
	}
	return nil
}

// aliveWorkers snapshots the currently usable workers.
func (c *Coordinator) aliveWorkers() []*workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*workerConn
	for _, w := range c.workers {
		if w.alive() {
			out = append(out, w)
		}
	}
	return out
}

// shardSlot is one unit of a live worker's capacity lent to one run: the
// core.SegmentRunner the engine's dispatcher ships shards through. It wraps
// each call in the "shard" span — the wire boundary, whose context travels
// to the worker so the returned spans stitch in as its children — tallies
// the run's distribution, and turns a failed call into a dead worker.
type shardSlot struct {
	c     *Coordinator
	w     *workerConn
	tally *shardTally
}

// shardTally is one run's distribution, shared by the run's slots.
type shardTally struct {
	mu    sync.Mutex
	stats RunStats
}

func (s *shardSlot) RunSegment(ctx context.Context, spec *core.SegmentSpec) (*core.SegmentOutcome, error) {
	sctx, span := obs.StartSpan(ctx, "shard",
		obs.String("worker", s.w.addr), obs.Int("start", spec.Start), obs.Int("end", spec.End))
	out, observed, err := s.w.runSegment(sctx, spec)
	span.End()
	if err != nil {
		if ctx.Err() != nil {
			// Cancellation, not failure: the in-flight call is abandoned but
			// the worker is healthy — leave it registered.
			return nil, ctx.Err()
		}
		// Connection failure, deadline, or a worker-side error: this worker
		// is done for the run, and the engine re-runs the shard on a local
		// replica. Only the connection observed failing is killed — a
		// concurrent run's redial may already have installed a fresh one.
		s.w.killClient(observed)
		s.c.log.Warn("cluster: shard failed on worker, re-queueing locally",
			obs.WorkerID(s.w.addr), slog.Int("start", spec.Start), slog.Int("end", spec.End), slog.Any("error", err))
		s.tally.mu.Lock()
		s.tally.stats.Requeued++
		s.tally.mu.Unlock()
		return nil, err
	}
	s.tally.mu.Lock()
	s.tally.stats.Remote[s.w.addr]++
	s.tally.stats.WireBytes += out.Segment.WireBytes
	s.tally.mu.Unlock()
	return out, nil
}

// RunOn executes a computation over a collection across the cluster and
// returns the same RunResult the local executor produces — it is the local
// executor's run (core.Engine.RunSharded), given one extra slot per unit of
// live worker capacity. It implements core.CollectionRunner, so a Session
// RunRequest can name the coordinator as its runner and shard through the
// same typed API the local engine serves.
//
// Workers that died in earlier runs are redialed on entry, so a restarted
// worker process rejoins the cluster without re-registering. Runs that cannot
// be sharded — adaptive mode (its plan emerges online from live
// observations), incremental runs, computations without a wire spec, an empty
// collection, or no live workers — get no slots and are plain engine runs. A
// worker that fails mid-run is marked dead and its shard re-runs on the
// coordinator engine's own replicas, so the run completes with local
// semantics rather than erroring.
//
// Cancelling ctx stops the run everywhere: the engine stops building and
// dispatching shards, in-flight worker RPCs are abandoned (the workers finish
// those shards on their own engines and keep their replicas pooled; they are
// not marked dead), and local shards stop at their next view boundary. A
// canceled run returns ctx's error and no result.
func (c *Coordinator) RunOn(ctx context.Context, col *view.Collection, comp analytics.Computation, ropts core.RunOptions) (*core.RunResult, error) {
	_, shardable := analytics.SpecOf(comp)
	k := col.Stream.NumViews()
	shardable = shardable && ropts.Mode != core.Adaptive && !ropts.Incremental && k != 0
	var alive []*workerConn
	if shardable {
		// Only a run that can actually shard pays for redialing dead workers.
		c.redialDead(ctx)
		alive = c.aliveWorkers()
	}
	// Stats() reports the most recent run: a run that gets no slots resets
	// it, never leaving a previous sharded run's distribution behind.
	tally := &shardTally{stats: RunStats{Remote: make(map[string]int)}}
	var slots []core.SegmentRunner
	for _, w := range alive {
		for i := 0; i < w.cap(); i++ {
			slots = append(slots, &shardSlot{c: c, w: w, tally: tally})
		}
	}
	c.log.Info("cluster: run starting", slog.String("collection", col.Name),
		slog.Bool("shardable", shardable), slog.Int("views", k),
		slog.Int("workers_alive", len(alive)), slog.Int("slots", len(slots)))

	stopHeartbeats := c.heartbeat(alive)
	res, err := c.eng.RunSharded(ctx, col, comp, ropts, slots)
	stopHeartbeats()

	// Every slot has returned: the tally is this goroutine's alone now.
	stats := &tally.stats
	if res != nil && len(slots) > 0 {
		stats.Local = len(res.Segments)
		for _, n := range stats.Remote {
			stats.Local -= n
		}
	}
	for _, w := range alive {
		if !w.alive() {
			stats.Dead = append(stats.Dead, w.addr)
		}
	}
	c.mu.Lock()
	c.stats = *stats
	c.mu.Unlock()
	return res, err
}

// heartbeat pings every given worker on the configured interval until the
// returned stop function is called (which also waits for the pingers to
// exit). A worker that stops answering is killed, which fails its in-flight
// shard calls immediately — the job deadline is the backstop for a worker
// that answers pings but never finishes work. Two consecutive misses (each
// given two intervals) are required: one slow ping on a loaded machine must
// not execute a healthy worker.
func (c *Coordinator) heartbeat(workers []*workerConn) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	if c.opts.Heartbeat > 0 {
		for _, w := range workers {
			wg.Add(1)
			go func(w *workerConn) {
				defer wg.Done()
				ticker := time.NewTicker(c.opts.Heartbeat)
				defer ticker.Stop()
				misses := 0
				var observed *rpc.Client
				for {
					select {
					case <-done:
						return
					case <-ticker.C:
						client, err := w.currentClient()
						if err != nil {
							return // dead
						}
						if client != observed {
							// A redial replaced the connection mid-sequence;
							// misses counted against the old one don't carry.
							observed, misses = client, 0
						}
						var reply PingReply
						// Heartbeats deliberately ignore the run's ctx: a
						// canceled run must drain quietly, not fail pings and
						// execute healthy workers that later runs still need.
						//lint:ignore ctxflow heartbeat liveness is bounded by its own interval, not the run's ctx
						if err := callClient(context.Background(), client, w.addr, ServiceName+".Ping", &PingArgs{}, &reply, 2*c.opts.Heartbeat); err != nil {
							if misses++; misses >= 2 {
								obs.M.HeartbeatFailures.Inc()
								c.log.Warn("cluster: worker killed after missed heartbeats", obs.WorkerID(w.addr), slog.Int("misses", misses))
								w.killClient(client)
								return
							}
						} else {
							misses = 0
						}
					}
				}
			}(w)
		}
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
