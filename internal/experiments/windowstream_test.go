package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphsurge/internal/datagen"
	"graphsurge/internal/gvdl"
)

// TestWindowStreamMatchesDirectSelection: accumulating the window diff
// stream through view t yields exactly the edges whose timestamp falls in
// window t — for random window sequences, including overlapping, nested and
// disjoint ones.
func TestWindowStreamMatchesDirectSelection(t *testing.T) {
	g := datagen.Temporal(datagen.TemporalConfig{Nodes: 100, Edges: 2000, Days: 50, Seed: 12})
	dayCol, _ := g.EdgeProps.ColumnIndex("ts")
	days := g.EdgeProps.Cols[dayCol].Ints

	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(6)
		windows := make([][2]int64, k)
		names := make([]string, k)
		for i := range windows {
			lo := int64(r.Intn(50))
			hi := lo + int64(r.Intn(30))
			windows[i] = [2]int64{lo, hi}
			names[i] = "w"
		}
		s := windowStream(g, dayCol, windows, names)
		present := make(map[uint32]bool)
		for t2 := 0; t2 < k; t2++ {
			for _, e := range s.Adds[t2] {
				if present[e] {
					return false
				}
				present[e] = true
			}
			for _, e := range s.Dels[t2] {
				if !present[e] {
					return false
				}
				delete(present, e)
			}
			for i := 0; i < g.NumEdges(); i++ {
				in := days[i] >= windows[t2][0] && days[i] < windows[t2][1]
				if present[uint32(i)] != in {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbationPredicatesRemoveCommunities(t *testing.T) {
	g := datagen.Community(datagen.CommunityConfig{
		Nodes: 500, Communities: 6, IntraDeg: 3, InterDeg: 1, Seed: 13,
	})
	names, preds := perturbationPredicates(g, 4, 2)
	if len(names) != 6 { // C(4,2)
		t.Fatalf("%d views", len(names))
	}
	ci, _ := g.NodeProps.ColumnIndex("community")
	comm := g.NodeProps.Cols[ci].Ints
	// First subset is {0,1}: no surviving edge touches them.
	for i := 0; i < g.NumEdges(); i++ {
		if !preds[0].(gvdl.Func)(i) {
			continue
		}
		cs, cd := comm[g.Srcs[i]], comm[g.Dsts[i]]
		if cs == 0 || cs == 1 || cd == 0 || cd == 1 {
			t.Fatalf("edge %d (%d->%d) survived removal of its community", i, cs, cd)
		}
	}
	// Each view removes something.
	for vi, p := range preds {
		kept := 0
		for i := 0; i < g.NumEdges(); i++ {
			if p.(gvdl.Func)(i) {
				kept++
			}
		}
		if kept == 0 || kept == g.NumEdges() {
			t.Fatalf("view %d keeps %d/%d edges", vi, kept, g.NumEdges())
		}
	}
}
