package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/obs"
)

// TestClusterTracePropagation: a traced cluster run over real localhost RPC
// stitches worker-side spans into the coordinator's trace — every record
// carries the coordinator's trace ID, every worker span parents under a
// shard span, and the remote span IDs live in the worker band so stitching
// can never collide with coordinator-assigned IDs.
func TestClusterTracePropagation(t *testing.T) {
	col := skewedCollection(t, 8, 17)
	w1, w2 := startWorker(t, 1), startWorker(t, 1)
	coord := newTestCoordinator(t, w1, w2)

	tr := obs.NewTrace("trace-prop")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := coord.RunOn(ctx, col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch}); err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans still open after the run finished", n)
	}

	recs := tr.Records()
	shards := make(map[uint64]bool) // shard span IDs
	var workers []obs.SpanRecord
	for _, r := range recs {
		if r.TraceID != tr.TraceID() {
			t.Fatalf("span %q carries trace %q, want the coordinator's %q", r.Name, r.TraceID, tr.TraceID())
		}
		if r.End == 0 {
			t.Fatalf("span %q never ended", r.Name)
		}
		switch r.Name {
		case "shard":
			shards[r.ID] = true
		case "worker":
			workers = append(workers, r)
		}
	}
	if len(shards) != col.Stream.NumViews() { // scratch: one shard per view
		t.Fatalf("%d shard spans, want %d", len(shards), col.Stream.NumViews())
	}
	if len(workers) != col.Stream.NumViews() {
		t.Fatalf("%d worker spans stitched in, want %d", len(workers), col.Stream.NumViews())
	}
	for _, r := range workers {
		if !shards[r.Parent] {
			t.Fatalf("worker span %d parents under %d, which is not a shard span", r.ID, r.Parent)
		}
		if r.ID < 1<<32 {
			t.Fatalf("worker span ID %d is below the remote band (1<<32): may collide with coordinator IDs", r.ID)
		}
	}
}

// TestClusterUntracedRunShipsNoTrace: without a trace on ctx the wire args
// stay zero and the reply carries no spans — tracing is strictly opt-in and
// costs untraced runs nothing on the wire.
func TestClusterUntracedRunShipsNoTrace(t *testing.T) {
	col := skewedCollection(t, 4, 23)
	w := startWorker(t, 1)
	coord := newTestCoordinator(t, w)
	if _, err := coord.RunOn(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch}); err != nil {
		t.Fatal(err)
	}
	// Reach one worker directly with empty trace context: the reply must not
	// fabricate spans.
	wc := coord.aliveWorkers()[0]
	payload, err := EncodeWire(firstShard(t, col, core.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	var reply RunSegmentReply
	if err := wc.call(context.Background(), ServiceName+".RunSegment", &RunSegmentArgs{Spec: payload}, &reply, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(reply.Spans) != 0 {
		t.Fatalf("untraced call returned %d spans, want 0", len(reply.Spans))
	}
}

// TestClusterCancelClosesSpans: a canceled traced cluster run must close
// every span it opened — the shard span wrapping the abandoned in-flight
// call included — so a trace read after cancellation never shows open spans.
func TestClusterCancelClosesSpans(t *testing.T) {
	col := skewedCollection(t, 8, 31)
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
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})

	coord := newTestCoordinator(t, srv)
	tr := obs.NewTrace("trace-cancel")
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), tr))
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := coord.RunOn(ctx, col, analytics.WCC{}, core.RunOptions{Mode: core.Scratch})
		errCh <- err
	}()
	<-entered // the worker is stalled mid-shard
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled cluster run did not return")
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("canceled run left %d spans open", n)
	}
	for _, r := range tr.Records() {
		if r.End == 0 {
			t.Fatalf("canceled run left span %q unended", r.Name)
		}
	}
}
