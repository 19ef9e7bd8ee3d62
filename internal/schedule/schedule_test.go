package schedule

import (
	"testing"
	"time"

	"graphsurge/internal/splitting"
)

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{{"fifo", FIFO}, {"", FIFO}, {"lpt", LPT}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if FIFO.String() != "fifo" || LPT.String() != "lpt" {
		t.Fatal("policy String()")
	}
}

// TestEstimatorColdFallback: with cold models, SegmentCost is the raw size
// proxy (seed size plus diff sizes) and reports modeled=false, so LPT still
// orders a skewed collection by work.
func TestEstimatorColdFallback(t *testing.T) {
	var e Estimator
	cost, modeled := e.SegmentCost(1000, []int{10, 20})
	if modeled || cost != 1030 {
		t.Fatalf("cold SegmentCost = %v, modeled=%v", cost, modeled)
	}
	// Scratch warm but diff cold: a segment with successors must still fall
	// back wholesale — seconds and raw sizes must never be mixed.
	e.ObserveScratch(100, 50*time.Millisecond)
	if _, modeled := e.SegmentCost(1000, []int{10}); modeled {
		t.Fatal("mixed warm/cold segment reported modeled")
	}
	if cost, modeled := e.SegmentCost(1000, nil); !modeled || cost <= 0 {
		t.Fatalf("warm scratch-only SegmentCost = %v, modeled=%v", cost, modeled)
	}
}

// TestEstimatorModeledCosts: warm models predict in seconds, proportional to
// the fitted per-unit costs.
func TestEstimatorModeledCosts(t *testing.T) {
	var e Estimator
	e.ObserveScratch(100, 100*time.Millisecond)
	e.ObserveScratch(200, 200*time.Millisecond)
	e.ObserveDiff(10, 20*time.Millisecond)
	e.ObserveDiff(20, 40*time.Millisecond)
	if s, d := e.Observations(); s != 2 || d != 2 {
		t.Fatalf("Observations = %d, %d", s, d)
	}
	cost, modeled := e.SegmentCost(300, []int{30})
	if !modeled {
		t.Fatal("warm estimator not modeled")
	}
	want := 0.300 + 0.060 // 1ms/unit scratch + 2ms/unit diff
	if cost < want*0.9 || cost > want*1.1 {
		t.Fatalf("SegmentCost = %v, want ≈ %v", cost, want)
	}
}

func TestLPTOrder(t *testing.T) {
	order := LPTOrder([]float64{3, 9, 1, 9, 5})
	// Descending cost, ties in collection order: 9(idx1), 9(idx3), 5, 3, 1.
	want := []int{1, 3, 4, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LPTOrder = %v, want %v", order, want)
		}
	}
	if len(LPTOrder(nil)) != 0 {
		t.Fatal("empty order")
	}
}

func TestPlanCosts(t *testing.T) {
	var e Estimator
	plan := splitting.PlanFromModes([]splitting.Mode{
		splitting.ModeScratch, splitting.ModeDiff, splitting.ModeScratch, splitting.ModeDiff,
	})
	costs := e.PlanCosts(plan, []int{100, 110, 50, 55}, []int{100, 30, 80, 10})
	if len(costs) != 2 {
		t.Fatalf("%d costs for 2 segments", len(costs))
	}
	// Cold proxy: seg0 = 100 + 30, seg1 = 50 + 10.
	if costs[0] != 130 || costs[1] != 60 {
		t.Fatalf("costs = %v", costs)
	}
}

// TestPredictSplit: the split point speculative segment starts seed from
// (Optimizer.NextSplit) skips the views inside a diff batch and returns the
// first batch boundary whose models prefer scratch — agreeing with what
// Decide does when the real decisions arrive with unchanged models.
func TestPredictSplit(t *testing.T) {
	opt := &splitting.Optimizer{BatchSize: 2}
	// Bootstrap views 0 and 1 so the next fresh decision lands at 2.
	opt.Decide(0, 100, 100)
	opt.Decide(1, 100, 10)
	// Diff is cheap for small diffs, terrible for large ones; scratch flat.
	opt.ObserveScratch(100, 10*time.Millisecond)
	opt.ObserveDiff(10, 2*time.Millisecond)
	opt.ObserveDiff(20, 4*time.Millisecond)

	// Views 2..7: diffs stay small until view 6, which is a huge diff the
	// model prices above a scratch run. View 5's diff is huge too, but it
	// sits inside the batch view 4 opened, so it inherits diff.
	viewSizes := []int{100, 100, 100, 100, 100, 100, 100, 100}
	diffSizes := []int{100, 10, 10, 12, 11, 900, 500, 12}

	p, ok := opt.NextSplit(2, viewSizes, diffSizes)
	if !ok || p != 6 {
		t.Fatalf("NextSplit = %d, %v, want 6 (the first batch boundary whose diff is priced above scratch)", p, ok)
	}
	// The real decisions, fed the same sizes with unchanged models, agree:
	// views 2..5 run differentially, view 6 opens a scratch batch (and view
	// 7, inside that batch, inherits its mode — a batch, not a boundary).
	for i := 2; i < 8; i++ {
		mode := opt.Decide(i, viewSizes[i], diffSizes[i])
		if want := i >= 6; want != (mode == splitting.ModeScratch) {
			t.Fatalf("Decide(%d) = %v, prediction said the scratch batch opens at 6", i, mode)
		}
	}

	// View 7 sits inside the scratch batch Decide(6) opened, so it splits
	// too and the prediction says so.
	if p, ok := opt.NextSplit(7, viewSizes, diffSizes); !ok || p != 7 {
		t.Fatalf("NextSplit(7) = %d, %v; view 7 is in the scratch batch", p, ok)
	}
	// Past the collection there is nothing to predict.
	if _, ok := opt.NextSplit(8, viewSizes, diffSizes); ok {
		t.Fatal("split predicted past the collection end")
	}
}

// TestPredictSplitMidScratchBatch: inside a scratch batch every remaining
// view opens a segment, so the predicted split point is the very next view
// — not the next batch boundary, which would guarantee a discarded
// speculation at each intervening view.
func TestPredictSplitMidScratchBatch(t *testing.T) {
	opt := &splitting.Optimizer{BatchSize: 4}
	opt.Decide(0, 100, 100)
	opt.Decide(1, 100, 10)
	// Scratch priced far below diff: the decision at view 2 opens a scratch
	// batch covering views 2..5.
	opt.ObserveScratch(100, time.Millisecond)
	opt.ObserveDiff(10, 100*time.Millisecond)
	sizes := []int{100, 100, 100, 100, 100, 100, 100, 100}
	diffs := []int{100, 10, 10, 10, 10, 10, 10, 10}
	if mode := opt.Decide(2, sizes[2], diffs[2]); mode != splitting.ModeScratch {
		t.Fatalf("Decide(2) = %v", mode)
	}
	// From view 3, still inside the batch: predict 3, not boundary 6.
	for from := 3; from < 6; from++ {
		p, ok := opt.NextSplit(from, sizes, diffs)
		if !ok || p != from {
			t.Fatalf("NextSplit(from=%d) = %d, %v; want the next view of the scratch batch", from, p, ok)
		}
	}
	// Bootstrap guard: a scratch bootstrap mode never predicts the bootstrap
	// diff view.
	fresh := &splitting.Optimizer{BatchSize: 4}
	fresh.Decide(0, 100, 100) // mode now scratch, one view decided
	if p, ok := fresh.NextSplit(1, sizes, diffs); ok && p < 2 {
		t.Fatalf("bootstrap view predicted as split: %d", p)
	}
}
