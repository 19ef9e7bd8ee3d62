package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
	"graphsurge/internal/view"
)

// skewedCollection builds a k-view collection whose first view dominates:
// view 0 holds most of the graph's edges and every later view flips a small
// random set — the shape where segment distribution matters (one fat
// segment, many thin ones under scratch mode).
func skewedCollection(t testing.TB, k int, seed int64) *view.Collection {
	t.Helper()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 200, Edges: 2400, Days: 60, Seed: seed})
	g.Name = "skew"
	r := rand.New(rand.NewSource(seed))
	present := make([]bool, g.NumEdges())

	names := make([]string, 0, k)
	adds := make([][]uint32, 0, k)
	dels := make([][]uint32, 0, k)
	for t := 0; t < k; t++ {
		var a, d []uint32
		if t == 0 {
			for i := range present {
				if r.Intn(4) != 0 {
					present[i] = true
					a = append(a, uint32(i))
				}
			}
		} else {
			flips := make(map[int]bool, 60)
			for len(flips) < 60 {
				flips[r.Intn(g.NumEdges())] = true
			}
			for i := 0; i < g.NumEdges(); i++ {
				if !flips[i] {
					continue
				}
				if present[i] {
					present[i] = false
					d = append(d, uint32(i))
				} else {
					present[i] = true
					a = append(a, uint32(i))
				}
			}
		}
		names = append(names, fmt.Sprintf("v%d", t))
		adds = append(adds, a)
		dels = append(dels, d)
	}
	return view.NewCollection("skew-col", g, &view.DiffStream{Names: names, Adds: adds, Dels: dels})
}

// startWorker spins up an in-process worker server on a localhost port.
func startWorker(t *testing.T, capacity int) *Server {
	t.Helper()
	eng, err := core.NewEngine(core.Options{Workers: 1, Parallelism: capacity})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng, capacity)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// newTestCoordinator wires a coordinator with a fresh local engine to the
// given workers, with test-speed failure detection.
func newTestCoordinator(t *testing.T, servers ...*Server) *Coordinator {
	t.Helper()
	eng, err := core.NewEngine(core.Options{Workers: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{JobTimeout: 30 * time.Second, Heartbeat: 100 * time.Millisecond})
	for _, srv := range servers {
		if err := coord.AddWorker(context.Background(), srv.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// assertSameRun asserts a cluster run reproduced a local run exactly:
// identical final results and identical per-view stats up to timing.
func assertSameRun(t *testing.T, local, clustered *core.RunResult) {
	t.Helper()
	if !reflect.DeepEqual(local.FinalResults(), clustered.FinalResults()) {
		t.Fatalf("final results diverge:\nlocal   %v\ncluster %v", local.FinalResults(), clustered.FinalResults())
	}
	if len(local.Stats) != len(clustered.Stats) {
		t.Fatalf("%d local views vs %d clustered", len(local.Stats), len(clustered.Stats))
	}
	for i := range local.Stats {
		l, c := local.Stats[i], clustered.Stats[i]
		l.Duration, c.Duration = 0, 0
		if !reflect.DeepEqual(l, c) {
			t.Fatalf("view %d stats diverge:\nlocal   %+v\ncluster %+v", i, l, c)
		}
	}
	if local.MaxWork() != clustered.MaxWork() {
		t.Fatalf("MaxWork %d locally, %d clustered", local.MaxWork(), clustered.MaxWork())
	}
	if local.IterCapHit() != clustered.IterCapHit() {
		t.Fatal("IterCapHit diverges")
	}
	if local.Splits != clustered.Splits {
		t.Fatalf("%d local splits vs %d clustered", local.Splits, clustered.Splits)
	}
}

// TestClusterMatchesLocal: a coordinator with two localhost workers must
// produce results identical to a Parallelism=2 local run on the same skewed
// collection, with both workers actually participating.
func TestClusterMatchesLocal(t *testing.T) {
	col := skewedCollection(t, 10, 11)
	localEng, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := localEng.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	coord := newTestCoordinator(t, w1, w2)
	clustered, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, local, clustered)

	stats := coord.Stats()
	if len(stats.Remote) != 2 {
		t.Fatalf("expected both workers to run shards, got %v", stats.Remote)
	}
	total := stats.Local
	for _, n := range stats.Remote {
		total += n
	}
	if total != col.Stream.NumViews() { // scratch: one shard per view
		t.Fatalf("%d shards accounted for, want %d", total, col.Stream.NumViews())
	}
	if stats.Requeued != 0 || len(stats.Dead) != 0 {
		t.Fatalf("healthy run reported failures: %+v", stats)
	}

	// A second run over the same cluster reuses worker pools and the warmed
	// estimator; results stay identical.
	again, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, local, again)

	// A fully-local fallback run (adaptive plans online) must reset the
	// distribution stats — Stats() reports the most recent run, never a
	// stale sharded one.
	if _, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Adaptive}); err != nil {
		t.Fatal(err)
	}
	if stats := coord.Stats(); len(stats.Remote) != 0 || stats.Local != 0 || stats.Requeued != 0 {
		t.Fatalf("local fallback left stale distribution stats: %+v", stats)
	}
}

// TestClusterWorkerAppliesOwnWorkers: a run that leaves Workers unset ships
// Workers=0, and each worker applies its own engine default — the worker's
// -workers flag — rather than inheriting the coordinator's.
func TestClusterWorkerAppliesOwnWorkers(t *testing.T) {
	col := skewedCollection(t, 6, 61)
	wEng, err := core.NewEngine(core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(wEng, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(func() { srv.Close() })

	coord := newTestCoordinator(t, srv)
	if _, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch}); err != nil {
		t.Fatal(err)
	}
	stats := wEng.PoolStats()
	if len(stats) != 1 {
		t.Fatalf("%d worker pools, want 1", len(stats))
	}
	if stats[0].Workers != 2 {
		t.Fatalf("worker built replicas with %d dataflow workers, want its own default 2", stats[0].Workers)
	}
}

// TestClusterSurvivesWorkerKill: killing one worker while it is mid-shard
// re-queues its work onto the coordinator's engine and the run completes
// with results identical to a local run. The kill is deterministic: the
// victim's first shard blocks inside the worker until the server is closed
// under it.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	col := skewedCollection(t, 8, 23)
	localEng, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := localEng.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	w1 := startWorker(t, 1)
	victim := startWorker(t, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	victim.svc.beforeRun = func(*core.SegmentSpec) {
		if once {
			return
		}
		once = true
		close(entered)
		<-release
	}

	coord := newTestCoordinator(t, w1, victim)
	done := make(chan struct{})
	var clustered *core.RunResult
	var runErr error
	go func() {
		defer close(done)
		clustered, runErr = coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	}()

	<-entered      // the victim is mid-shard
	victim.Close() // kill it: its connections sever, the in-flight call fails
	close(release)
	<-done

	if runErr != nil {
		t.Fatal(runErr)
	}
	assertSameRun(t, local, clustered)
	stats := coord.Stats()
	if stats.Requeued == 0 {
		t.Fatalf("no shard re-queued after worker kill: %+v", stats)
	}
	if len(stats.Dead) != 1 || stats.Dead[0] != victim.Addr().String() {
		t.Fatalf("dead workers %v, want the victim", stats.Dead)
	}
	if stats.Local == 0 {
		t.Fatal("re-queued shards did not run locally")
	}
}

// TestClusterJobDeadline: a worker that accepts a shard and never finishes
// (but keeps answering heartbeats — net/rpc serves requests concurrently)
// is cut off by the per-job deadline and its shard re-queues locally.
func TestClusterJobDeadline(t *testing.T) {
	col := skewedCollection(t, 6, 31)
	hang := startWorker(t, 1)
	release := make(chan struct{})
	defer close(release)
	var once bool
	hang.svc.beforeRun = func(*core.SegmentSpec) {
		if once {
			return
		}
		once = true
		<-release
	}

	eng, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{JobTimeout: 150 * time.Millisecond, Heartbeat: time.Hour})
	if err := coord.AddWorker(context.Background(), hang.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	res, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	localEng, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := localEng.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, local, res)
	if stats := coord.Stats(); stats.Requeued == 0 || stats.Local != col.Stream.NumViews() {
		t.Fatalf("deadline did not push the run local: %+v", stats)
	}
}

// TestClusterDegradesToLocal: runs that cannot be sharded — adaptive mode,
// computations without a wire spec — fall back to the coordinator's engine
// and still return correct results.
func TestClusterDegradesToLocal(t *testing.T) {
	col := skewedCollection(t, 6, 41)
	w := startWorker(t, 1)
	coord := newTestCoordinator(t, w)

	local, err := core.RunCollectionContext(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Adaptive})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local.FinalResults(), adaptive.FinalResults()) {
		t.Fatal("adaptive fallback diverges from local adaptive run")
	}
	if w.Jobs() != 0 {
		t.Fatalf("adaptive run shipped %d shards; it must plan online, locally", w.Jobs())
	}

	localScratch, err := core.RunCollectionContext(context.Background(), col, customWCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	custom, err := coord.RunOn(context.Background(), col, customWCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(localScratch.FinalResults(), custom.FinalResults()) {
		t.Fatal("custom-computation fallback diverges")
	}
	if w.Jobs() != 0 {
		t.Fatal("a computation without a wire spec was shipped to a worker")
	}
}

// customWCC is WCC under a name outside the built-in registry: correct to
// run, impossible to describe over the wire.
type customWCC struct{ analytics.WCC }

func (customWCC) Name() string { return "custom-wcc" }

// TestClusterRedialsDeadWorkers: a worker that dies is degraded around for
// that run, but the next run redials it — a restarted worker process on the
// same address rejoins the cluster without re-registration.
func TestClusterRedialsDeadWorkers(t *testing.T) {
	col := skewedCollection(t, 6, 53)
	w := startWorker(t, 1)
	addr := w.Addr().String()
	coord := newTestCoordinator(t, w)

	if _, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch}); err != nil {
		t.Fatal(err)
	}
	if stats := coord.Stats(); stats.Remote[addr] == 0 {
		t.Fatalf("healthy worker ran no shards: %+v", stats)
	}

	w.Close()
	if _, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch}); err != nil {
		t.Fatal(err)
	}
	if ws := coord.Workers(); len(ws) != 1 || ws[0].Alive {
		t.Fatalf("killed worker still listed alive: %+v", ws)
	}

	// Restart a fresh worker process on the same address, advertising a
	// different capacity — redial must pick both up.
	eng2, err := core.NewEngine(core.Options{Workers: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(eng2, 2)
	var l net.Listener
	for i := 0; ; i++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv2.Start(l)
	t.Cleanup(func() { srv2.Close() })

	res, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	if stats := coord.Stats(); stats.Remote[addr] == 0 {
		t.Fatalf("redialed worker ran no shards: %+v", stats)
	}
	ws := coord.Workers()
	if len(ws) != 1 || !ws[0].Alive || ws[0].Capacity != 2 {
		t.Fatalf("redialed worker roster %+v, want alive with refreshed capacity 2", ws)
	}
	local, err := core.RunCollectionContext(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, local, res)
}

// TestClusterCancelMidRun: cancelling a cluster run's ctx stops shard
// dispatch, abandons the in-flight worker call without declaring the worker
// dead, and leaks neither coordinator goroutines nor worker replicas — the
// worker finishes its shard on its own and stays usable for the next run.
func TestClusterCancelMidRun(t *testing.T) {
	col := skewedCollection(t, 8, 59)
	wEng, err := core.NewEngine(core.Options{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(wEng, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(func() { srv.Close() })

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	srv.svc.beforeRun = func(*core.SegmentSpec) {
		if once {
			return
		}
		once = true
		close(entered)
		<-release
	}

	coord := newTestCoordinator(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.RunOn(ctx, col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
		errCh <- err
	}()
	<-entered // the worker is mid-shard
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled cluster run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled cluster run did not return while its worker was stalled")
	}
	// Cancellation is not failure: the stalled worker must not be executed.
	if ws := coord.Workers(); !ws[0].Alive {
		t.Fatal("cancellation marked the worker dead")
	}
	if stats := coord.Stats(); len(stats.Dead) != 0 {
		t.Fatalf("cancellation recorded dead workers: %+v", stats)
	}

	// Let the abandoned shard finish; the worker's replica must return to
	// its pool even though nobody is waiting for the reply.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := 0
		for _, ps := range wEng.PoolStats() {
			live += ps.Live
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still holds %d live replicas after the abandoned shard finished", live)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The same coordinator and worker serve the next run normally.
	res, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.RunCollectionContext(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, local, res)
}

// TestHandshakeRejectsVersionMismatch: a worker speaking another protocol
// version is refused at registration.
func TestHandshakeRejectsVersionMismatch(t *testing.T) {
	w := startWorker(t, 1)
	eng, err := core.NewEngine(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{})
	defer coord.Close()
	if err := coord.AddWorker(context.Background(), w.Addr().String()); err != nil {
		t.Fatalf("matching version refused: %v", err)
	}

	var reply HelloReply
	wc := coord.aliveWorkers()[0]
	if err := wc.call(context.Background(), ServiceName+".Hello", &HelloArgs{Version: ProtocolVersion + 1}, &reply, time.Second); err == nil {
		t.Fatal("worker accepted a mismatched protocol version")
	}
}
