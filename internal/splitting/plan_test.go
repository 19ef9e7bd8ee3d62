package splitting

import (
	"slices"
	"testing"
)

func TestPlanDiffOnly(t *testing.T) {
	p := PlanDiffOnly(5)
	if p.NumViews() != 5 || len(p.Segments) != 1 {
		t.Fatalf("plan: %+v", p)
	}
	if p.Segments[0] != (Segment{Start: 0, End: 5}) {
		t.Fatalf("segment: %+v", p.Segments[0])
	}
	if p.Splits() != 0 {
		t.Fatalf("splits: %d", p.Splits())
	}
	for _, m := range p.Modes {
		if m != ModeDiff {
			t.Fatalf("modes: %v", p.Modes)
		}
	}
	if empty := PlanDiffOnly(0); empty.NumViews() != 0 || len(empty.Segments) != 0 {
		t.Fatalf("empty plan: %+v", empty)
	}
}

func TestPlanScratch(t *testing.T) {
	p := PlanScratch(4)
	if p.NumViews() != 4 || len(p.Segments) != 4 {
		t.Fatalf("plan: %+v", p)
	}
	for i, s := range p.Segments {
		if s.Start != i || s.End != i+1 || s.Len() != 1 {
			t.Fatalf("segment %d: %+v", i, s)
		}
		if p.Modes[i] != ModeScratch {
			t.Fatalf("modes: %v", p.Modes)
		}
	}
	if p.Splits() != 3 {
		t.Fatalf("splits: %d", p.Splits())
	}
}

func TestPlanFromModes(t *testing.T) {
	modes := []Mode{ModeScratch, ModeDiff, ModeDiff, ModeScratch, ModeDiff, ModeScratch}
	p := PlanFromModes(modes)
	want := []Segment{{0, 3}, {3, 5}, {5, 6}}
	if len(p.Segments) != len(want) {
		t.Fatalf("segments: %+v", p.Segments)
	}
	for i, s := range want {
		if p.Segments[i] != s {
			t.Fatalf("segment %d: got %+v want %+v", i, p.Segments[i], s)
		}
	}
	if p.Splits() != 2 {
		t.Fatalf("splits: %d", p.Splits())
	}
}

// TestPlannerBootstrapAndSplit drives the incremental planner through the
// optimizer's bootstrap and a model-declared split, checking that segments
// open exactly at split points and cover the view range in order.
func TestPlannerBootstrap(t *testing.T) {
	opt := &Optimizer{BatchSize: 2}
	pl := NewPlanner(opt)

	mode, split := pl.Extend(100, 100)
	if mode != ModeScratch || !split {
		t.Fatalf("view 0: %v %v", mode, split)
	}
	mode, split = pl.Extend(100, 10)
	if mode != ModeDiff || split {
		t.Fatalf("view 1: %v %v", mode, split)
	}

	// Make differential execution look terrible and scratch cheap, so the
	// next batch decision declares a split.
	opt.ObserveScratch(100, 1)
	opt.ObserveDiff(10, 10000)
	mode, split = pl.Extend(100, 10)
	if mode != ModeScratch || !split {
		t.Fatalf("view 2: %v %v", mode, split)
	}

	p := pl.Plan()
	if p.NumViews() != 3 || len(p.Segments) != 2 {
		t.Fatalf("plan: %+v", p)
	}
	if p.Segments[0] != (Segment{0, 2}) || p.Segments[1] != (Segment{2, 3}) {
		t.Fatalf("segments: %+v", p.Segments)
	}

	// Segment coverage invariant: contiguous, in order, no gaps.
	next := 0
	for _, s := range p.Segments {
		if s.Start != next || s.End <= s.Start {
			t.Fatalf("coverage: %+v", p.Segments)
		}
		next = s.End
	}
	if next != p.NumViews() {
		t.Fatalf("coverage: %+v", p.Segments)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{{"fifo", FIFO}, {"", FIFO}, {"lpt", LPT}} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
		var parsed Policy
		if text, _ := got.MarshalText(); parsed.UnmarshalText(text) != nil || parsed != got {
			t.Fatalf("%v does not round-trip through its text form", got)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if FIFO.String() != "fifo" || LPT.String() != "lpt" {
		t.Fatal("policy String()")
	}
}

// TestLPTOrder: segments dispatch largest first and ties keep collection
// order.
func TestLPTOrder(t *testing.T) {
	// Five scratch segments sized 3, 9, 1, 9, 5: descending, ties in
	// collection order.
	order := LPTOrder(PlanScratch(5), []int{3, 9, 1, 9, 5}, make([]int, 5))
	if want := []int{1, 3, 4, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("LPTOrder = %v, want %v", order, want)
	}
	if len(LPTOrder(PlanScratch(0), nil, nil)) != 0 {
		t.Fatal("empty order")
	}
}

// TestPlanCosts: a multi-view segment's size is its seed view's |GV| plus
// its successors' |δC|; the seed's own difference and the sizes of the
// successor views do not count.
func TestPlanCosts(t *testing.T) {
	plan := PlanFromModes([]Mode{ModeScratch, ModeDiff, ModeScratch, ModeDiff})
	// seg0 = 100 + 30, seg1 = 50 + 10: seg0 first.
	if order := LPTOrder(plan, []int{100, 110, 50, 55}, []int{100, 30, 80, 10}); !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("LPTOrder = %v, want [0 1]", order)
	}
	// seg0 = 100 + 30, seg1 = 50 + 90: the successor's difference puts
	// seg1 first, though its seed is the smaller view.
	if order := LPTOrder(plan, []int{100, 110, 50, 55}, []int{100, 30, 80, 90}); !slices.Equal(order, []int{1, 0}) {
		t.Fatalf("LPTOrder = %v, want [1 0]", order)
	}
	// seg1's seed difference (800) is not part of its size: seg0 stays first.
	if order := LPTOrder(plan, []int{100, 110, 50, 55}, []int{100, 30, 800, 10}); !slices.Equal(order, []int{0, 1}) {
		t.Fatalf("LPTOrder = %v, want [0 1]; a seed's own difference must not count", order)
	}
}
