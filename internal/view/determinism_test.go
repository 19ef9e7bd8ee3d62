package view

import (
	"fmt"
	"testing"

	"graphsurge/internal/gvdl"
	"graphsurge/internal/ordering"
)

// windowEBM builds an EBM of shuffled nested-window views.
func windowEBM(k, edges int) *EBM {
	g := chainGraph(edges)
	names := make([]string, k)
	preds := make([]gvdl.Expr, k)
	for i := 0; i < k; i++ {
		limit := ((i*7)%k + 1) * edges / k
		names[i] = fmt.Sprintf("v%d", i)
		preds[i] = gvdl.Func(func(e int) bool { return e < limit })
	}
	return funcEBM(g, names, preds, 1)
}

// TestOptimizeOrderDeterministic: identical EBMs yield identical orders —
// the optimizer has no hidden randomness, so collection builds are
// reproducible.
func TestOptimizeOrderDeterministic(t *testing.T) {
	m := windowEBM(9, 360)
	first := OptimizeOrder(m)
	for i := 0; i < 5; i++ {
		got := OptimizeOrder(m)
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("run %d differs: %v vs %v", i, got, first)
			}
		}
	}
}

// TestRandomOrderSeeded: the random baseline is reproducible by seed and
// differs across seeds.
func TestRandomOrderSeeded(t *testing.T) {
	a := RandomOrder(20, 1)
	b := RandomOrder(20, 1)
	c := RandomOrder(20, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different orders")
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical orders")
	}
}

// TestOrderedDiffsNeverWorseThanWorstRandom is the optimizer's practical
// guarantee on nested-window workloads.
func TestOrderedDiffsNeverWorseThanWorstRandom(t *testing.T) {
	m := windowEBM(8, 320)
	opt := MaterializeDiffs(m, OptimizeOrder(m)).TotalDiffs()
	for seed := int64(0); seed < 10; seed++ {
		rnd := MaterializeDiffs(m, RandomOrder(m.NumViews(), seed)).TotalDiffs()
		if opt > rnd {
			t.Fatalf("optimizer %d diffs worse than random seed %d with %d", opt, seed, rnd)
		}
	}
	// And within 1.6x of the true optimum for this small instance.
	best := ordering.BruteForce(m.NumViews(), func(o []int) int64 {
		return MaterializeDiffs(m, o).TotalDiffs()
	})
	bestDiffs := MaterializeDiffs(m, best).TotalDiffs()
	if float64(opt) > 1.6*float64(bestDiffs) {
		t.Fatalf("optimizer %d vs optimal %d", opt, bestDiffs)
	}
}
