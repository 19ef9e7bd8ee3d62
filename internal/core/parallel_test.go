package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/datagen"
	"graphsurge/internal/gvdl"
	"graphsurge/internal/splitting"
	"graphsurge/internal/view"
)

// randomCollection builds a seeded random k-view collection over a datagen
// graph: the first view is a random subset of the edges, and every later
// view flips a few random edges in and out.
func randomCollection(t testing.TB, k int, seed int64) *view.Collection {
	t.Helper()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 300, Edges: 3000, Days: 100, Seed: seed})
	g.Name = "rnd"
	r := rand.New(rand.NewSource(seed))
	present := make([]bool, g.NumEdges())

	names := make([]string, 0, k)
	adds := make([][]uint32, 0, k)
	dels := make([][]uint32, 0, k)
	for t := 0; t < k; t++ {
		var a, d []uint32
		if t == 0 {
			for i := range present {
				if r.Intn(2) == 0 {
					present[i] = true
					a = append(a, uint32(i))
				}
			}
		} else {
			flips := make(map[int]bool, 200)
			for len(flips) < 200 {
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
	stream := &view.DiffStream{Names: names, Adds: adds, Dels: dels}
	return view.NewCollection("rnd-col", g, stream)
}

// TestSegmentParallelDeterminism is the parallel executor's equivalence
// check: for WCC and PageRank on a seeded random collection, FinalResults
// and the per-view ViewSize/DiffSize stats must be byte-identical across
// Parallelism ∈ {1, 4} × workers ∈ {1, 4}, in all three execution modes —
// and across LPT vs FIFO dispatch for static plans. Adaptive runs at
// Parallelism 4 overlap a closed segment's tail with the next seed and at 1
// do not. Scheduling may only move work, never change it.
func TestSegmentParallelDeterminism(t *testing.T) {
	col := randomCollection(t, 8, 42)
	comps := []analytics.Computation{analytics.WCC{}, analytics.PageRank{}}
	type variant struct {
		mode  ExecMode
		sched splitting.Policy
	}
	variants := []variant{
		{mode: DiffOnly}, {mode: DiffOnly, sched: splitting.LPT},
		{mode: Scratch}, {mode: Scratch, sched: splitting.LPT},
		{mode: Adaptive},
	}

	for _, comp := range comps {
		var baseline *RunResult
		for _, v := range variants {
			for _, par := range []int{1, 4} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/sched=%s/p=%d/w=%d",
						comp.Name(), v.mode, v.sched, par, workers)
					res, err := RunCollectionContext(context.Background(), col, comp, RunOptions{
						Mode:        v.mode,
						Workers:     workers,
						Parallelism: par,
						BatchSize:   2,
						Schedule:    v.sched,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.IterCapHit() {
						t.Fatalf("%s: iteration cap hit", name)
					}
					if len(res.Stats) != col.Stream.NumViews() {
						t.Fatalf("%s: %d stats", name, len(res.Stats))
					}
					for i, st := range res.Stats {
						if st.Index != i || st.Name != col.Stream.Names[i] {
							t.Fatalf("%s: stats[%d] out of collection order: %+v", name, i, st)
						}
						if st.OutputDiffs <= 0 || st.Duration <= 0 {
							t.Fatalf("%s: stats[%d] not recorded: %+v", name, i, st)
						}
					}
					if baseline == nil {
						baseline = res
						continue
					}
					got, want := res.FinalResults(), baseline.FinalResults()
					if len(got) != len(want) {
						t.Fatalf("%s: %d results, baseline %d", name, len(got), len(want))
					}
					for kv, d := range want {
						if got[kv] != d {
							t.Fatalf("%s: result %+v = %d, baseline %d", name, kv, got[kv], d)
						}
					}
					for i := range res.Stats {
						if res.Stats[i].ViewSize != baseline.Stats[i].ViewSize ||
							res.Stats[i].DiffSize != baseline.Stats[i].DiffSize {
							t.Fatalf("%s: stats[%d] sizes diverge: %+v vs %+v",
								name, i, res.Stats[i], baseline.Stats[i])
						}
					}
				}
			}
		}
	}
}

// TestSeedScanOpeningView: the seed of the opening view is exactly its
// first difference set, and a later view's seed is the stream folded up to
// it — both read from the view's EBM column, with no scan to advance first.
func TestSeedScanOpeningView(t *testing.T) {
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 10, Edges: 8, Days: 5, Seed: 1})
	col := view.NewCollection("open", g, &view.DiffStream{
		Names: []string{"a", "b"},
		Adds:  [][]uint32{{1, 3, 5}, {2}},
		Dels:  [][]uint32{nil, {3}},
	})
	cr := newCollectionRun(col, -1)
	for v, want := range [][]uint32{{1, 3, 5}, {1, 2, 5}} {
		if got, _ := cr.seed(v, nil); !slices.Equal(got.Idx, want) {
			t.Fatalf("seed at view %d: %v, want %v", v, got.Idx, want)
		}
	}
}

// TestSeedCacheOutOfOrderDispatch: a segment's seed is a walk of its view's
// EBM column, so views are seeded in any order — LPT dispatch needs no seed
// cache. Every view's seed, requested in a shuffled
// order, equals a forward fold of the stream, on a random collection in
// stream order and on a GVDL-path one whose columns are randomly ordered.
func TestSeedCacheOutOfOrderDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rnd := randomCollection(t, 8, 5)
	preds := make([]gvdl.Expr, 6)
	names := make([]string, len(preds))
	for j := range preds {
		names[j] = fmt.Sprintf("m%d", j)
		preds[j] = gvdl.Func(func(i int) bool { return i%(j+2) != 0 })
	}
	shuffled, err := view.MaterializeFromPredicates("mod", rnd.Graph, names, preds, nil, view.Options{Mode: view.OrderRandom, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []*view.Collection{rnd, shuffled} {
		cr := newCollectionRun(col, -1)
		member := make([]bool, col.Graph.NumEdges())
		want := make([][]uint32, col.Stream.NumViews())
		for v := range want {
			for _, e := range col.Stream.Adds[v] {
				member[e] = true
			}
			for _, e := range col.Stream.Dels[v] {
				member[e] = false
			}
			for e, in := range member {
				if in {
					want[v] = append(want[v], uint32(e))
				}
			}
		}
		for _, v := range r.Perm(len(want)) {
			if got, _ := cr.seed(v, nil); !slices.Equal(got.Idx, want[v]) {
				t.Fatalf("%s: seed of view %d has %d edges, the stream fold %d", col.Name, v, got.Len(), len(want[v]))
			}
		}
	}
}

// TestScratchParallelSplits checks the plan accounting under parallel
// dispatch: scratch mode splits at every view after the first no matter how
// many replicas execute them.
func TestScratchParallelSplits(t *testing.T) {
	col := randomCollection(t, 6, 7)
	for _, par := range []int{1, 2, 4, 8} {
		res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: Scratch, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if res.Splits != col.Stream.NumViews()-1 {
			t.Fatalf("parallelism %d: %d splits", par, res.Splits)
		}
	}
}

// TestParallelOnSingleSegment checks that parallelism is harmless where no
// independence exists: diff-only has one segment, so extra replicas idle.
func TestParallelOnSingleSegment(t *testing.T) {
	col := randomCollection(t, 5, 11)
	res, err := RunCollectionContext(context.Background(), col, analytics.WCC{}, RunOptions{Mode: DiffOnly, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits != 0 {
		t.Fatalf("%d splits in diff-only", res.Splits)
	}
	if len(res.FinalResults()) == 0 {
		t.Fatal("no results")
	}
}
