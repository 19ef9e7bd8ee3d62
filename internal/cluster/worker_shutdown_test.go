package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/view"
)

// specTap is a core.SegmentRunner that keeps the shards an engine's
// dispatcher hands it and executes none: every call fails, so the run
// finishes on the engine's own replicas.
type specTap struct{ specs []*core.SegmentSpec }

func (s *specTap) RunSegment(_ context.Context, spec *core.SegmentSpec) (*core.SegmentOutcome, error) {
	s.specs = append(s.specs, spec)
	return nil, errors.New("specTap executes nothing")
}

// firstShard returns the first shard the engine's dispatcher builds for a
// run of WCC over col in the given mode — under DiffOnly a single segment
// covering every view, the longest-running shard shape, with a cancellation
// point at each view boundary.
func firstShard(t *testing.T, col *view.Collection, mode core.ExecMode) *core.SegmentSpec {
	t.Helper()
	eng, err := core.NewEngine(core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tap := &specTap{}
	if _, err := eng.RunSharded(context.Background(), col, analytics.WCC{}, core.RunOptions{Mode: mode, Workers: 1}, []core.SegmentRunner{tap}); err != nil {
		t.Fatal(err)
	}
	if len(tap.specs) != 1 {
		t.Fatalf("a retired slot was offered %d shards, want 1", len(tap.specs))
	}
	return tap.specs[0]
}

// TestWorkerCloseAbortsRunningSegment: closing a worker server cancels its
// shutdown context, which must abort an in-flight segment at its next view
// boundary with context.Canceled — and the aborted segment's replica must
// land back in the engine's pool, not leak with the dead job.
func TestWorkerCloseAbortsRunningSegment(t *testing.T) {
	col := skewedCollection(t, 120, 73)
	eng, err := core.NewEngine(core.Options{Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := NewServer(eng, 1)
	defer srv.Close()

	payload, err := EncodeWire(firstShard(t, col, core.DiffOnly))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.svc.RunSegment(&RunSegmentArgs{Spec: payload}, &RunSegmentReply{})
	}()

	// Wait until the segment holds a replica — it is genuinely running, not
	// queued on the pool.
	deadline := time.Now().Add(10 * time.Second)
	for live(eng) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("segment never acquired a replica")
		}
		time.Sleep(200 * time.Microsecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("segment on a closed worker returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("segment kept running after the worker closed")
	}
	// RunSegment releases via defer before returning, so the replica must
	// already be back.
	if n := live(eng); n != 0 {
		t.Fatalf("%d replicas still live after the aborted segment returned", n)
	}
	// Jobs counts completed shards only; an aborted shard is not one.
	if srv.Jobs() != 0 {
		t.Fatalf("aborted segment counted as %d completed jobs", srv.Jobs())
	}
}

// live sums live replicas across the engine's pools.
func live(e *core.Engine) int {
	n := 0
	for _, ps := range e.PoolStats() {
		n += ps.Live
	}
	return n
}
