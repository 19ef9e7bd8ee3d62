package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/dataflow"
	"graphsurge/internal/graph"
	"graphsurge/internal/gvdl"
)

// TestSessionDoTypedRequests drives every request type through one Session
// and checks the typed responses — the contract the CLI and the HTTP server
// both render from.
func TestSessionDoTypedRequests(t *testing.T) {
	col := randomCollection(t, 4, 31)
	e := engineWithCollection(t, Options{}, col)
	sess := e.NewSession()
	ctx := context.Background()

	resp, err := sess.Do(ctx, &StatementsRequest{Src: `create view early on rnd edges where ts < 40
create view collection cc on rnd [a: ts < 30], [b: ts < 60]`})
	if err != nil {
		t.Fatal(err)
	}
	results := resp.(*StatementsResponse).Results
	if len(results) != 2 {
		t.Fatalf("%d statement results, want 2", len(results))
	}
	vc, ok := results[0].(gvdl.ViewCreated)
	if !ok || vc.Name != "early" || vc.Edges <= 0 {
		t.Fatalf("first result = %#v, want ViewCreated{early, >0 edges}", results[0])
	}
	cc, ok := results[1].(gvdl.CollectionCreated)
	if !ok || cc.Name != "cc" || cc.Views != 2 {
		t.Fatalf("second result = %#v, want CollectionCreated{cc, 2 views}", results[1])
	}
	// The rendered form is the CLI line.
	if want := fmt.Sprintf("view early: %d edges", vc.Edges); vc.String() != want {
		t.Fatalf("ViewCreated renders %q, want %q", vc.String(), want)
	}

	rr, err := sess.Do(ctx, &RunRequest{
		Collection: col.Name,
		Algorithm:  analytics.Spec{Algorithm: "wcc"},
		Options:    RunOptions{Mode: Scratch, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rr.(*RunResult)
	if res.Computation != "wcc" || len(res.Stats) != 4 || len(res.FinalResults()) == 0 {
		t.Fatalf("run result = %+v", res)
	}

	vr, err := sess.Do(ctx, &RunViewRequest{View: "early", Algorithm: analytics.Spec{Algorithm: "degree"}})
	if err != nil {
		t.Fatal(err)
	}
	view := vr.(*ViewRunResult)
	if view.Computation != "degree" || view.View != "early" || view.Edges != vc.Edges || len(view.Results) == 0 {
		t.Fatalf("view run result = %+v", view)
	}

	ps, err := sess.Do(ctx, &PoolStatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	pools := ps.(*PoolStatsResponse).Pools
	if len(pools) != 1 || pools[0].Computation != "wcc" || pools[0].Live != 0 {
		t.Fatalf("pool stats = %+v, want one quiescent wcc pool", pools)
	}

	if _, err := sess.Do(ctx, &RunRequest{Collection: "nope", Algorithm: analytics.Spec{Algorithm: "wcc"}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("run over unknown collection: err = %v, want ErrNotFound", err)
	}
	if _, err := sess.Do(ctx, &RunRequest{Collection: col.Name, Algorithm: analytics.Spec{Algorithm: "bogus"}}); err == nil {
		t.Fatal("run with unknown algorithm: no error")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sess.Do(canceled, &PoolStatsRequest{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do on canceled ctx: err = %v", err)
	}
}

// TestSessionStatementsPartialOnError pins the partial-results contract: a
// failing batch reports the statements that completed before the failure.
func TestSessionStatementsPartialOnError(t *testing.T) {
	col := randomCollection(t, 2, 33)
	e := engineWithCollection(t, Options{}, col)
	resp, err := e.NewSession().Do(context.Background(), &StatementsRequest{
		Src: "create view ok on rnd edges where ts < 40\ncreate view broken on nothing edges where ts < 5",
	})
	if err == nil {
		t.Fatal("expected error for statement over unknown target")
	}
	results := resp.(*StatementsResponse).Results
	if len(results) != 1 || results[0].(gvdl.ViewCreated).Name != "ok" {
		t.Fatalf("partial results = %#v, want the one completed view", results)
	}
}

// TestSessionConcurrentDo hammers one engine through one Session from
// concurrent goroutines — GVDL creates racing collection runs — under the
// race detector, and checks the pools quiesce.
func TestSessionConcurrentDo(t *testing.T) {
	col := randomCollection(t, 4, 35)
	e := engineWithCollection(t, Options{}, col)
	sess := e.NewSession()
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("create view s%d on rnd edges where ts < %d", i, 20+10*i)
			resp, err := sess.Do(ctx, &StatementsRequest{Src: src})
			if err != nil {
				errs <- err
				return
			}
			if r := resp.(*StatementsResponse).Results; len(r) != 1 {
				errs <- fmt.Errorf("goroutine %d: %d results", i, len(r))
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := sess.Do(ctx, &RunRequest{
				Collection: col.Name,
				Algorithm:  analytics.Spec{Algorithm: "wcc"},
				Options:    RunOptions{Mode: Scratch, Parallelism: 2},
			})
			if err != nil {
				errs <- err
				return
			}
			if len(resp.(*RunResult).FinalResults()) == 0 {
				errs <- fmt.Errorf("run %d: empty final results", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, ps := range e.PoolStats() {
		if ps.Live != 0 {
			t.Fatalf("pool %s still has %d live replicas", ps.Ident, ps.Live)
		}
	}
}

// gatedComp is a computation whose operator blocks on a gate channel,
// letting tests freeze a run mid-step deterministically. The first record
// to reach the operator signals started. It captures channels, so it is
// deliberately unpoolable at the engine level (identifiableComp is false)
// and tests hand it a private pool.
type gatedComp struct {
	started chan struct{}
	gate    chan struct{}
	once    *sync.Once
}

func newGatedComp() gatedComp {
	return gatedComp{started: make(chan struct{}), gate: make(chan struct{}), once: &sync.Once{}}
}

func (gatedComp) Name() string { return "gated" }

func (c gatedComp) Build(b *analytics.Builder) {
	out := dataflow.Map(b.Edges(), func(tr graph.Triple) analytics.VertexValue {
		c.once.Do(func() { close(c.started) })
		<-c.gate
		return analytics.VertexValue{V: tr.Src, Val: 1}
	})
	b.Output(out)
}

// TestCancelMidRunReturnsReplicas is the cancellation contract: cancelling
// a run mid-flight fails it with ctx's error, stops segment dispatch, and
// returns every acquired replica — the pool's Live count drops to zero and
// every built replica is back idle, so nothing leaked.
func TestCancelMidRunReturnsReplicas(t *testing.T) {
	col := randomCollection(t, 6, 37)
	for _, tc := range []struct {
		name string
		opts RunOptions
	}{
		{"static", RunOptions{Mode: Scratch, Workers: 1, Parallelism: 2}},
		{"adaptive", RunOptions{Mode: Adaptive, Workers: 1, Parallelism: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp := newGatedComp()
			pool := analytics.NewPool(comp, 1, 2)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errCh := make(chan error, 1)
			go func() {
				_, err := runCollection(ctx, col, comp, tc.opts, pool, remoteSlots{})
				errCh <- err
			}()
			<-comp.started
			cancel()
			close(comp.gate)
			if err := <-errCh; !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run returned %v, want context.Canceled", err)
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d replicas still live after cancellation", live)
			}
			built, _ := pool.Counts()
			if idle := pool.Idle(); idle != built {
				t.Fatalf("%d idle replicas after cancellation, want all %d built back in the pool", idle, built)
			}
		})
	}
}

// TestCancelWhileWaitingForPoolSlot cancels a run whose dispatcher is
// blocked in the pool's Acquire wait — the wait must abort with ctx's
// error, not sit until a slot frees.
func TestCancelWhileWaitingForPoolSlot(t *testing.T) {
	comp := newGatedComp()
	pool := analytics.NewPool(comp, 1, 1)
	// Occupy the only slot so the next Acquire queues.
	held, _, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		//lint:ignore poolrelease canceled Acquire hands out no runner; only the error is under test
		_, _, err := pool.Acquire(ctx)
		errCh <- err
	}()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not abort on cancellation")
	}
	pool.Release(held)
	if pool.Live() != 0 {
		t.Fatalf("%d live after release", pool.Live())
	}
}

// TestEngineCloseWaitsForActiveRuns pins the Close contract: Close blocks
// until in-flight runs finish, runs arriving while it drains are refused
// with ErrClosing, and the engine is usable again once Close returns. Run
// under -race, this also asserts Close cannot race an in-flight run's pool
// map accesses.
func TestEngineCloseWaitsForActiveRuns(t *testing.T) {
	col := randomCollection(t, 4, 39)
	e := engineWithCollection(t, Options{Parallelism: 2}, col)
	comp := newGatedComp()
	runDone := make(chan error, 1)
	go func() {
		_, err := e.RunOn(context.Background(), col, comp, RunOptions{Mode: Scratch})
		runDone <- err
	}()
	<-comp.started

	closeDone := make(chan struct{})
	go func() {
		e.Close()
		close(closeDone)
	}()
	// Wait until Close has started draining, then check admission is shut.
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.runMu.Lock()
		closing := e.closing
		e.runMu.Unlock()
		if closing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.RunOn(context.Background(), col, analytics.WCC{}, RunOptions{}); !errors.Is(err, ErrClosing) {
		t.Fatalf("run during Close drain: err = %v, want ErrClosing", err)
	}
	select {
	case <-closeDone:
		t.Fatal("Close returned with a run still in flight")
	default:
	}

	close(comp.gate)
	if err := <-runDone; err != nil {
		t.Fatalf("in-flight run failed: %v", err)
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the run finished")
	}
	// The engine stays usable after Close.
	if _, err := e.RunOn(context.Background(), col, analytics.WCC{}, RunOptions{}); err != nil {
		t.Fatalf("post-Close run: %v", err)
	}
}

// TestOnSegmentStreams pins the progress hook: every segment of a static
// run is reported exactly once, before RunOn returns, and the reported
// ranges cover the collection.
func TestOnSegmentStreams(t *testing.T) {
	col := randomCollection(t, 5, 41)
	e := engineWithCollection(t, Options{}, col)
	var mu sync.Mutex
	var got []SegmentStats
	res, err := e.RunOn(context.Background(), col, analytics.WCC{}, RunOptions{
		Mode:        Scratch,
		Parallelism: 2,
		OnSegment: func(st SegmentStats) {
			mu.Lock()
			got = append(got, st)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Segments) {
		t.Fatalf("OnSegment fired %d times, result has %d segments", len(got), len(res.Segments))
	}
	covered := 0
	for _, st := range got {
		covered += st.Len()
	}
	if covered != 5 {
		t.Fatalf("streamed segments cover %d views, want 5", covered)
	}
}

// TestExecModeTextRoundTrip pins the wire names of the execution modes.
func TestExecModeTextRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ExecMode
	}{
		{"diff", DiffOnly}, {"diff-only", DiffOnly}, {"scratch", Scratch}, {"adaptive", Adaptive},
	} {
		var m ExecMode
		if err := m.UnmarshalText([]byte(tc.in)); err != nil || m != tc.want {
			t.Fatalf("UnmarshalText(%q) = %v, %v", tc.in, m, err)
		}
	}
	var m ExecMode
	if err := m.UnmarshalText([]byte("bogus")); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("UnmarshalText(bogus) err = %v", err)
	}
	if b, _ := Scratch.MarshalText(); string(b) != "scratch" {
		t.Fatalf("MarshalText(Scratch) = %q", b)
	}
}
