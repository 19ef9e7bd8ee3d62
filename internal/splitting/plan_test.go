package splitting

import (
	"testing"
	"time"
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
	opt.ObserveScratch(100, 1*time.Millisecond)
	opt.ObserveDiff(10, 10*time.Second)
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
