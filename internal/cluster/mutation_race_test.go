package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphsurge/internal/analytics"
	"graphsurge/internal/core"
	"graphsurge/internal/datagen"
)

// TestShardedRunsRaceMutations: a sharded run is an engine run — it holds
// the run/mutation barrier from its first stream read to its merge, so a
// mutation maintaining the collection's difference stream in place waits for
// it (and it for the mutation). Background sharded runs hammer the stream
// through Session.Do while the test applies mutation batches; after every
// batch a sharded run must equal a from-scratch local run. Run under -race:
// without the barrier the shard builder reads the slices view maintenance is
// rewriting.
func TestShardedRunsRaceMutations(t *testing.T) {
	eng, err := core.NewEngine(core.Options{Workers: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 120, Edges: 900, Days: 20, Seed: 9})
	g.Name = "dyn"
	if err := eng.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.ExecuteContext(ctx,
		"create view collection roll on dyn [a: ts < 6], [b: ts < 12], [c: duration <= 30], [d: ts < 18]"); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(eng, Options{})
	defer coord.Close()
	for i := 0; i < 2; i++ {
		if err := coord.AddWorker(ctx, startWorker(t, 1).Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	sess := eng.NewSession()
	run := func(runner core.CollectionRunner) (*core.RunResult, error) {
		resp, err := sess.Do(ctx, &core.RunRequest{
			Collection: "roll",
			Algorithm:  analytics.Spec{Algorithm: "wcc"},
			Options:    core.RunOptions{Mode: core.Scratch},
			Runner:     runner,
		})
		if err != nil {
			return nil, err
		}
		return resp.(*core.RunResult), nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := run(coord); err != nil {
					t.Errorf("background sharded run: %v", err)
					return
				}
			}
		}()
	}

	r := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		req := &core.MutateRequest{Graph: "dyn"}
		for i := 0; i < 6; i++ {
			req.Inserts = append(req.Inserts, core.EdgeChange{
				Src:   uint64(r.Intn(g.NumNodes)),
				Dst:   uint64(r.Intn(g.NumNodes)),
				Props: map[string]any{"ts": r.Intn(20), "duration": 1 + r.Intn(60)},
			})
		}
		seen := map[[2]uint64]bool{}
		for len(req.Deletes) < 4 {
			// Only this goroutine mutates, so reading the graph between its own
			// mutations is ordered.
			i := r.Intn(g.NumEdges())
			pair := [2]uint64{g.Srcs[i], g.Dsts[i]}
			if !g.EdgeAlive(i) || seen[pair] {
				continue
			}
			seen[pair] = true
			req.Deletes = append(req.Deletes, core.EdgeChange{Src: pair[0], Dst: pair[1]})
		}
		if _, err := sess.Do(ctx, req); err != nil {
			t.Fatalf("round %d: mutate: %v", round, err)
		}
		sharded, err := run(coord)
		if err != nil {
			t.Fatalf("round %d: sharded run: %v", round, err)
		}
		scratch, err := run(nil)
		if err != nil {
			t.Fatalf("round %d: local run: %v", round, err)
		}
		if !reflect.DeepEqual(sharded.FinalResults(), scratch.FinalResults()) {
			t.Fatalf("round %d: sharded run diverges from the from-scratch run after the mutation", round)
		}
		for i := range scratch.Stats {
			if sharded.Stats[i].ViewSize != scratch.Stats[i].ViewSize || sharded.Stats[i].OutputDiffs != scratch.Stats[i].OutputDiffs {
				t.Fatalf("round %d view %d: sharded %+v, from scratch %+v", round, i, sharded.Stats[i], scratch.Stats[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	if st := coord.Stats(); st.Requeued != 0 || len(st.Dead) != 0 {
		t.Fatalf("healthy cluster reported failures: %+v", st)
	}
}
