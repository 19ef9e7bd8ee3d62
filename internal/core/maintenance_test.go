package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graphsurge/internal/datagen"
	"graphsurge/internal/view"
)

// randSocialPred draws a predicate over a located social graph's edge (w,
// affinity) and endpoint (city, state) properties: and/or/not up to depth 2,
// literals on either side.
func randSocialPred(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(3) == 0 {
		atoms := []func() string{
			func() string { return fmt.Sprintf("w < %d", 1+r.Intn(10)) },
			func() string { return fmt.Sprintf("%d > w", 1+r.Intn(10)) },
			func() string { return fmt.Sprintf("affinity = %d", r.Intn(3)) },
			func() string { return "src.city = dst.city" },
			func() string { return fmt.Sprintf("src.state != %d", r.Intn(2)) },
			func() string { return fmt.Sprintf("dst.city <= %d", r.Intn(8)) },
		}
		return atoms[r.Intn(len(atoms))]()
	}
	switch r.Intn(3) {
	case 0:
		return "not (" + randSocialPred(r, depth-1) + ")"
	case 1:
		return "(" + randSocialPred(r, depth-1) + " and " + randSocialPred(r, depth-1) + ")"
	}
	return "(" + randSocialPred(r, depth-1) + " or " + randSocialPred(r, depth-1) + ")"
}

func randViews(r *rand.Rand) string {
	views := make([]string, 2+r.Intn(4))
	for i := range views {
		views[i] = fmt.Sprintf("[v%d: %s]", i, randSocialPred(r, 2))
	}
	return strings.Join(views, ", ")
}

// TestMaintainedEqualsFreshRandomized: on random graphs, a random GVDL
// collection, a view, a view over that view and a collection over the view
// go through three mutation batches whose inserts cross a 64-edge word
// boundary and whose deletes hit member edges. After every batch each
// maintained stream and EBM equals a fresh create of the same statement on
// the mutated graph. The reopen arm reopens the engine on its data directory
// before every batch, so each batch maintains collections whose EBMs were
// rebuilt from their streams on load.
func TestMaintainedEqualsFreshRandomized(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("reopen=%v/seed=%d", reopen, seed), func(t *testing.T) {
				checkMaintainedEqualsFresh(t, seed, reopen)
			})
		}
	}
}

func checkMaintainedEqualsFresh(t *testing.T, seed int64, reopen bool) {
	ctx := context.Background()
	dir := t.TempDir()
	r := rand.New(rand.NewSource(seed))
	open := func() *Engine {
		e, err := NewEngine(Options{Workers: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := open()
	defer func() { e.Close() }()
	g := datagen.Social(datagen.SocialConfig{Nodes: 40, Edges: 150 + r.Intn(100), Locations: 8, Seed: seed})
	g.Name = "sg"
	if err := e.AddGraph(g); err != nil {
		t.Fatal(err)
	}
	// Parents before children; %[1]s is the artifact's name, %[2]s its target.
	artifacts := []struct{ name, on, stmt string }{
		{"c", "sg", "create view collection %[1]s on %[2]s " + randViews(r)},
		{"p", "sg", "create view %[1]s on %[2]s edges where " + randSocialPred(r, 2)},
		{"q", "p", "create view %[1]s on %[2]s edges where " + randSocialPred(r, 2)},
		{"cp", "p", "create view collection %[1]s on %[2]s " + randViews(r)},
	}
	create := func(rename map[string]string) {
		t.Helper()
		for _, a := range artifacts {
			on := a.on
			if fresh, ok := rename[on]; ok {
				on = fresh
			}
			if _, err := e.ExecuteContext(ctx, fmt.Sprintf(a.stmt, rename[a.name], on)); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := map[string]string{}
	for _, a := range artifacts {
		names[a.name] = a.name
	}
	create(names)

	for batch := 1; batch <= 3; batch++ {
		if reopen {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = open()
		}
		g, err := e.Graph("sg")
		if err != nil {
			t.Fatal(err)
		}
		req := &MutateRequest{Graph: "sg"}
		for range 64 - g.NumEdges()%64 + 1 + r.Intn(8) {
			req.Inserts = append(req.Inserts, EdgeChange{
				Src: uint64(r.Intn(g.NumNodes)), Dst: uint64(r.Intn(g.NumNodes)),
				Props: map[string]any{"w": 1 + r.Intn(10), "affinity": r.Intn(3)},
			})
		}
		seen := map[[2]uint64]bool{}
		for _, v := range []string{"q", "p"} {
			adds := mustView(t, e, v).Stream.Adds[0]
			for n := 0; n < 2 && len(adds) > 0; n++ {
				i := adds[r.Intn(len(adds))]
				if pair := [2]uint64{g.Srcs[i], g.Dsts[i]}; !seen[pair] {
					seen[pair] = true
					req.Deletes = append(req.Deletes, EdgeChange{Src: pair[0], Dst: pair[1]})
				}
			}
		}
		if _, err := e.NewSession().Do(ctx, req); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}

		fresh := map[string]string{}
		for _, a := range artifacts {
			fresh[a.name] = fmt.Sprintf("%s-f%d", a.name, batch)
		}
		create(fresh)
		for _, a := range artifacts {
			got, err := e.LookupCollection(a.name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.LookupCollection(fresh[a.name])
			if err != nil {
				t.Fatal(err)
			}
			if got.EBM == nil {
				t.Fatalf("batch %d: %s has no EBM (reopened: %v)", batch, a.name, reopen)
			}
			sameCollection(t, fmt.Sprintf("batch %d: %s", batch, a.name), got, want)
		}
	}
}

// sameCollection holds a maintained collection to a fresh one: version,
// order, every difference set and every EBM column.
func sameCollection(t *testing.T, what string, got, want *view.Collection) {
	t.Helper()
	if got.Version != want.Version || !reflect.DeepEqual(got.Order, want.Order) {
		t.Fatalf("%s: version %d order %v, fresh version %d order %v", what, got.Version, got.Order, want.Version, want.Order)
	}
	for v := range want.Stream.NumViews() {
		if len(got.Stream.Adds[v])+len(want.Stream.Adds[v]) > 0 && !reflect.DeepEqual(got.Stream.Adds[v], want.Stream.Adds[v]) ||
			len(got.Stream.Dels[v])+len(want.Stream.Dels[v]) > 0 && !reflect.DeepEqual(got.Stream.Dels[v], want.Stream.Dels[v]) {
			t.Fatalf("%s: view %d adds %v dels %v, fresh adds %v dels %v",
				what, v, got.Stream.Adds[v], got.Stream.Dels[v], want.Stream.Adds[v], want.Stream.Dels[v])
		}
	}
	if got.EBM.NumEdges != want.EBM.NumEdges {
		t.Fatalf("%s: EBM covers %d edges, fresh %d", what, got.EBM.NumEdges, want.EBM.NumEdges)
	}
	for ci, col := range got.EBM.Cols {
		if !reflect.DeepEqual(col.Words(), want.EBM.Cols[ci].Words()) {
			t.Fatalf("%s: EBM column %d differs from fresh", what, ci)
		}
	}
}
