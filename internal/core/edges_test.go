package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/graph"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

var stepSink viewStep

// TestViewStepAllocs pins that a segment's non-opening view reaches its
// runner by reference: building its step copies no edge and allocates
// nothing. A per-view batch built from the index lists must fail it.
func TestViewStepAllocs(t *testing.T) {
	col := randomCollection(t, 4, 3)
	cr := newCollectionRun(col, -1)
	for v := 1; v < 4; v++ {
		if n := testing.AllocsPerRun(100, func() { stepSink = cr.view(v, splitting.ModeDiff, nil) }); n != 0 {
			t.Fatalf("view %d: %v allocations a step, want 0", v, n)
		}
		st := cr.view(v, splitting.ModeDiff, nil)
		if st.seed || st.adds.Len() != len(col.Stream.Adds[v]) || st.dels.Len() != len(col.Stream.Dels[v]) {
			t.Fatalf("view %d: step %+v does not carry the stream's difference sets", v, st.meta)
		}
	}
}

// TestSeedListsAreRecycled pins that a static run refills the index lists
// of seeds whose segments have run: a scratch run of eight equal-sized
// disjoint windows on one slot opens every segment from at most two arrays
// (the seed being stepped and the one built ahead of it), not eight.
func TestSeedListsAreRecycled(t *testing.T) {
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 50, Edges: 160, Days: 10, Seed: 2})
	const k, w = 8, 20
	stream := &view.DiffStream{Names: make([]string, k), Adds: make([][]uint32, k), Dels: make([][]uint32, k)}
	for v := 0; v < k; v++ {
		stream.Names[v] = string(rune('a' + v))
		for e := v * w; e < (v+1)*w; e++ {
			stream.Adds[v] = append(stream.Adds[v], uint32(e))
		}
		if v > 0 {
			stream.Dels[v] = stream.Adds[v-1]
		}
	}
	comp := &seedRecorder{}
	if _, err := RunCollectionContext(context.Background(), view.NewCollection("windows", g, stream), comp, RunOptions{Mode: Scratch, Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if len(comp.seeds) != k {
		t.Fatalf("%d seed steps, want %d", len(comp.seeds), k)
	}
	arrays := map[*uint32]bool{}
	for _, p := range comp.seeds {
		arrays[p] = true
	}
	if len(arrays) > 2 {
		t.Fatalf("the run's %d seeds used %d index arrays, want at most 2", k, len(arrays))
	}
}

// seedRecorder is WCC run by runners that record the index array of every
// step whose additions are edge references.
type seedRecorder struct {
	analytics.WCC
	mu    sync.Mutex
	seeds []*uint32
}

func (c *seedRecorder) NewRunner(workers int) (analytics.Runner, error) {
	inst, err := analytics.NewInstance(analytics.WCC{}, workers)
	if err != nil {
		return nil, err
	}
	return &seedRecording{Instance: inst, c: c}, nil
}

type seedRecording struct {
	*analytics.Instance
	c *seedRecorder
}

func (r *seedRecording) Step(adds, dels graph.Edges) time.Duration {
	if refs, ok := adds.(*graph.EdgeRefs); ok && len(refs.Idx) > 0 {
		r.c.mu.Lock()
		r.c.seeds = append(r.c.seeds, &refs.Idx[0])
		r.c.mu.Unlock()
	}
	return r.Instance.Step(adds, dels)
}
