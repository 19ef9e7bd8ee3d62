package analytics

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"graphsurge/internal/graph"
)

func poolTriples() []graph.Triple {
	return []graph.Triple{
		{Src: 1, Dst: 2, W: 1},
		{Src: 2, Dst: 3, W: 1},
		{Src: 4, Dst: 5, W: 1},
	}
}

func TestInstanceReset(t *testing.T) {
	inst, err := NewInstance(WCC{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	scope := inst.Scope()
	inst.Step(graph.NewEdgeBatch(poolTriples()), nil)
	if len(inst.Results()) != 5 {
		t.Fatalf("results: %v", inst.Results())
	}
	if err := inst.Reset(); err != nil {
		t.Fatal(err)
	}
	// The reset is in place: the same dataflow (same scope) is reused, not
	// rebuilt through NewInstance.
	if inst.Scope() != scope {
		t.Fatal("Reset rebuilt the dataflow instead of resetting in place")
	}
	if len(inst.Results()) != 0 || inst.OutputDiffs() != 0 {
		t.Fatalf("reset instance has results: %v, %d output diffs", inst.Results(), inst.OutputDiffs())
	}
	// A reset instance runs from scratch and reproduces the same answer.
	inst.Step(graph.NewEdgeBatch(poolTriples()), nil)
	if len(inst.Results()) != 5 {
		t.Fatalf("results after reset: %v", inst.Results())
	}
}

func TestPoolReusesRunners(t *testing.T) {
	p := NewPool(WCC{}, 1, 2)
	if p.Size() != 2 {
		t.Fatalf("size: %d", p.Size())
	}
	r1, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r1.Step(graph.NewEdgeBatch(poolTriples()), nil)
	p.Release(r1)
	if p.Idle() != 1 {
		t.Fatalf("idle after release: %d", p.Idle())
	}
	r2, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("pool did not recycle the released runner")
	}
	if len(r2.Results()) != 0 || r2.OutputDiffs() != 0 {
		t.Fatal("recycled runner was not reset")
	}
	built, reused := p.Counts()
	if built != 1 || reused != 1 {
		t.Fatalf("counts: built=%d reused=%d", built, reused)
	}
	p.Release(r2)
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(WCC{}, 1, 1)
	r, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Live() != 1 {
		t.Fatalf("live: %d", p.Live())
	}
	acquired := make(chan Runner)
	go func() {
		r2, _, err := p.Acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		acquired <- r2
	}()
	select {
	case <-acquired:
		t.Fatal("second Acquire did not block on a full pool")
	case <-time.After(20 * time.Millisecond):
	}
	p.Release(r)
	select {
	case r2 := <-acquired:
		p.Release(r2)
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake after Release")
	}
}

// TestPoolGrowUnblocksWaiters checks the engine-level resize path: a caller
// blocked on a full pool proceeds once another caller grows the capacity.
func TestPoolGrowUnblocksWaiters(t *testing.T) {
	p := NewPool(WCC{}, 1, 1)
	r1, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan Runner)
	go func() {
		r2, _, err := p.Acquire(context.Background())
		if err != nil {
			t.Error(err)
		}
		acquired <- r2
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire did not block at capacity 1")
	case <-time.After(20 * time.Millisecond):
	}
	p.Grow(2)
	var r2 Runner
	select {
	case r2 = <-acquired:
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake after Grow")
	}
	p.Grow(1) // never shrinks
	if p.Size() != 2 {
		t.Fatalf("size after Grow(1): %d", p.Size())
	}
	p.Release(r1)
	p.Release(r2)
}

// TestPoolRecyclesStagedSCCRunner pins that Release keeps the staged SCC
// runner warm and Acquire resets it in place, and that the recycled runner answers a different graph from scratch. The two graphs
// swap which vertices lie on a cycle: a trim scope that kept the first
// graph's edges would keep 3 → 1 and put the path in the core, degree counts
// that survived would never mark the reused vertices alive, and an answer
// that survived would still hold 6 and 4's old color.
func TestPoolRecyclesStagedSCCRunner(t *testing.T) {
	p := NewPool(SCC{}, 1, 1)
	r1, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := []graph.Triple{{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1}, {Src: 3, Dst: 1, W: 1}, {Src: 4, Dst: 5, W: 1}, {Src: 5, Dst: 6, W: 1}}
	r1.Step(graph.NewEdgeBatch(first), nil)
	p.Release(r1)
	r2, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("staged SCC runner was not recycled")
	}
	if len(r2.Results()) != 0 || r2.OutputDiffs() != 0 {
		t.Fatalf("recycled SCC runner kept results: %v, %d output diffs", r2.Results(), r2.OutputDiffs())
	}
	second := []graph.Triple{{Src: 1, Dst: 2, W: 1}, {Src: 2, Dst: 3, W: 1}, {Src: 4, Dst: 5, W: 1}, {Src: 5, Dst: 4, W: 1}}
	r2.Step(graph.NewEdgeBatch(second), nil)
	want := sccOracle(second)
	got := r2.Results()
	if len(got) != len(want) {
		t.Fatalf("recycled SCC runner: %v, oracle %v", got, want)
	}
	for vv, d := range got {
		if d != 1 || want[vv.V] != vv.Val {
			t.Fatalf("recycled SCC runner: vertex %d = %d ×%d, oracle %d", vv.V, vv.Val, d, want[vv.V])
		}
	}
	if r2.OutputDiffs() != len(want) {
		t.Fatalf("recycled SCC runner: %d output diffs at version 0, want %d", r2.OutputDiffs(), len(want))
	}
	p.Release(r2)
}

func TestPoolDropIdle(t *testing.T) {
	p := NewPool(WCC{}, 1, 1)
	r, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p.Release(r)
	if p.Idle() != 1 {
		t.Fatalf("idle: %d", p.Idle())
	}
	p.DropIdle()
	if p.Idle() != 0 {
		t.Fatalf("idle after drop: %d", p.Idle())
	}
	r2, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r {
		t.Fatal("dropped runner was recycled")
	}
	p.Release(r2)
}

// parkRunner is an Instance that records whether it was parked after its
// last step.
type parkRunner struct {
	*Instance
	parked bool
}

func (r *parkRunner) Step(adds, dels graph.Edges) time.Duration {
	r.parked = false
	return r.Instance.Step(adds, dels)
}

func (r *parkRunner) Park() {
	r.parked = true
	r.Instance.Park()
}

// parkComp is WCC run by a parkRunner.
type parkComp struct{ WCC }

func (parkComp) NewRunner(workers int) (Runner, error) {
	inst, err := NewInstance(WCC{}, workers)
	if err != nil {
		return nil, err
	}
	return &parkRunner{Instance: inst}, nil
}

// TestPoolReleaseParks pins that a runner the pool takes back is parked, so
// an idle pooled replica holds no exchange columns of a difference set.
func TestPoolReleaseParks(t *testing.T) {
	p := NewPool(parkComp{}, 1, 1)
	r, _, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r.Step(graph.NewEdgeBatch(poolTriples()), nil)
	r.Step(nil, graph.NewEdgeBatch(poolTriples()[:1]))
	if r.(*parkRunner).parked {
		t.Fatal("runner parked before it was released")
	}
	p.Release(r)
	if !r.(*parkRunner).parked {
		t.Fatal("Release did not park the runner")
	}
}

// TestPoolKeepsScratchColumns pins the version-0 condition of Scope.Park: a
// pooled Instance that ran only version 0 keeps its exchange columns across
// Release and Acquire, so the next scratch view refills them instead of
// growing them again: about 55 B per edge (about 100 B under the race
// detector) against about 1 600 B when Release lets them go.
func TestPoolKeepsScratchColumns(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	edges := make([]graph.Triple, 4000)
	for i := range edges {
		edges[i] = graph.Triple{Src: uint64(r.Intn(2000)), Dst: uint64(r.Intn(2000)), W: 1}
	}
	view := graph.NewEdgeBatch(edges)
	p := NewPool(WCC{}, 1, 1)
	cycle := func() {
		run, _, err := p.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		run.Step(view, nil)
		p.Release(run)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	const n = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	perEdge := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n*len(edges))
	t.Logf("a pooled scratch view allocates %.1f B per edge", perEdge)
	if perEdge > 400 {
		t.Fatalf("a pooled scratch view allocates %.1f B per edge, want at most 400: its exchange columns did not survive Release", perEdge)
	}
}

// TestPoolDifferentialRunBytes is TestPoolKeepsScratchColumns's differential
// sibling: a pooled Instance runs a whole view and three small difference
// sets, then goes back to the pool. Release parks it past version 0, so its
// pending buffers, output batches and schedules go and the next run grows
// them again, while the input's and the fused operators' scratch, bounded at
// chunkRows rows a batch, stays. Bytes per edge a run, measured (under the
// race detector): wcc 853 (1 022), sssp 663 (710); 1 220 and 984 while that
// scratch was view-sized and went with the rest, and sssp's roots came from
// the whole vertex set.
func TestPoolDifferentialRunBytes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	edge := func() graph.Triple {
		return graph.Triple{Src: uint64(r.Intn(2000)), Dst: uint64(r.Intn(2000)), W: int64(1 + r.Intn(9))}
	}
	edges := make([]graph.Triple, 4000)
	for i := range edges {
		edges[i] = edge()
	}
	view := graph.NewEdgeBatch(edges)
	var deltas [3][2]*graph.EdgeBatch // adds and deletes
	for i := range deltas {
		adds := make([]graph.Triple, 20)
		for j := range adds {
			adds[j] = edge()
		}
		deltas[i] = [2]*graph.EdgeBatch{graph.NewEdgeBatch(adds), graph.NewEdgeBatch(edges[20*i : 20*i+10])}
	}
	for _, c := range []struct {
		comp  Computation
		bound float64
	}{{WCC{}, 1100}, {SSSP{Source: edges[0].Src}, 800}} {
		p := NewPool(c.comp, 1, 1)
		cycle := func() {
			run, _, err := p.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			run.Step(view, nil)
			for _, d := range deltas {
				run.Step(d[0], d[1])
			}
			p.Release(run)
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		const n = 5
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			cycle()
		}
		runtime.ReadMemStats(&m1)
		perEdge := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n*len(edges))
		t.Logf("%s: a pooled differential run allocates %.1f B per edge", c.comp.Name(), perEdge)
		if perEdge > c.bound {
			t.Fatalf("%s: a pooled differential run allocates %.1f B per edge, want at most %.0f", c.comp.Name(), perEdge, c.bound)
		}
	}
}
