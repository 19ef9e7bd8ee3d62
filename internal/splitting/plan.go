package splitting

import (
	"fmt"
	"sort"
)

// Segment is a maximal run of views executed on one dataflow instance: the
// first view seeds the dataflow (the initial load for the segment opening the
// collection, a from-scratch run for every later segment) and the remaining
// views run differentially on top of it. Segments are mutually independent —
// no dataflow state crosses a segment boundary — which is what makes them the
// unit of coarse-grained parallelism in the executor.
type Segment struct {
	Start, End int // half-open view range [Start, End)
}

// Len returns the number of views in the segment.
func (s Segment) Len() int { return s.End - s.Start }

// Plan is a complete execution plan for a k-view collection: the per-view
// modes chosen by the splitting strategy, grouped into independent segments.
// A new segment opens at view 0 and at every view whose mode is ModeScratch.
type Plan struct {
	Modes    []Mode
	Segments []Segment
}

// NumViews returns the number of views the plan covers.
func (p Plan) NumViews() int { return len(p.Modes) }

// Splits counts the from-scratch runs after view 0 — the number of times the
// collection is split, matching the paper's accounting (the initial load is
// not a split).
func (p Plan) Splits() int {
	n := 0
	for _, s := range p.Segments {
		if s.Start > 0 {
			n++
		}
	}
	return n
}

// PlanDiffOnly plans every view differentially: one segment spanning the
// whole collection.
func PlanDiffOnly(k int) Plan {
	p := Plan{Modes: make([]Mode, k)}
	if k > 0 {
		p.Segments = []Segment{{Start: 0, End: k}}
	}
	return p
}

// PlanScratch plans every view from scratch: k single-view segments, making
// the collection embarrassingly parallel.
func PlanScratch(k int) Plan {
	p := Plan{Modes: make([]Mode, k), Segments: make([]Segment, k)}
	for t := 0; t < k; t++ {
		p.Modes[t] = ModeScratch
		p.Segments[t] = Segment{Start: t, End: t + 1}
	}
	return p
}

// PlanFromModes groups an explicit per-view mode sequence into segments.
func PlanFromModes(modes []Mode) Plan {
	p := Plan{Modes: modes}
	for t, m := range modes {
		if t == 0 || m == ModeScratch {
			p.Segments = append(p.Segments, Segment{Start: t, End: t + 1})
		} else {
			p.Segments[len(p.Segments)-1].End = t + 1
		}
	}
	return p
}

// Planner converts the adaptive optimizer's one-at-a-time decisions into an
// incrementally growing plan. The executor consumes segments as split points
// are declared: each Extend call decides the next view and reports whether it
// opened a new segment, so a segment can be handed off for execution the
// moment the optimizer closes it.
//
// A Planner is not safe for concurrent use; callers that feed optimizer
// observations from executor goroutines must serialize Extend against the
// Observe* calls themselves.
type Planner struct {
	opt  *Optimizer
	plan Plan
}

// NewPlanner wraps an optimizer. The optimizer's models are shared: runtime
// observations fed to it between Extend calls inform later decisions.
func NewPlanner(opt *Optimizer) *Planner {
	return &Planner{opt: opt}
}

// Extend decides the mode of the next undecided view given its full size and
// difference-set size, appends it to the plan, and reports whether the
// decision opened a new segment (view 0 always does; later views do exactly
// when the optimizer declares a split).
func (p *Planner) Extend(viewSize, diffSize int) (Mode, bool) {
	t := len(p.plan.Modes)
	mode := p.opt.Decide(t, viewSize, diffSize)
	p.plan.Modes = append(p.plan.Modes, mode)
	if t == 0 || mode == ModeScratch {
		p.plan.Segments = append(p.plan.Segments, Segment{Start: t, End: t + 1})
		return mode, true
	}
	p.plan.Segments[len(p.plan.Segments)-1].End = t + 1
	return mode, false
}

// Plan returns the plan built so far. The returned value shares backing
// arrays with the planner; callers should be done extending.
func (p *Planner) Plan() Plan { return p.plan }

// Policy selects the dispatch order of a static plan's segments.
type Policy uint8

const (
	// FIFO dispatches segments in collection order.
	FIFO Policy = iota
	// LPT dispatches the largest segment first (Longest Processing Time), so
	// on a skewed collection the largest segment cannot land last and
	// serialize the tail of the run.
	LPT
)

func (p Policy) String() string {
	if p == LPT {
		return "lpt"
	}
	return "fifo"
}

// ParsePolicy parses a policy name: "fifo" (or empty) or "lpt".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo", "":
		return FIFO, nil
	case "lpt":
		return LPT, nil
	}
	return FIFO, fmt.Errorf("splitting: unknown schedule policy %q (want fifo or lpt)", s)
}

// MarshalText encodes the policy as its name, so JSON request bodies carry
// "lpt" rather than an enum ordinal.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name — the same names ParsePolicy accepts,
// so the HTTP API and the -schedule flag agree.
func (p *Policy) UnmarshalText(text []byte) error {
	parsed, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// LPTOrder returns a dispatch permutation over plan's segments, largest
// first. A segment's size is its seed view's |GV| plus its successors' |δC|,
// given per view by viewSizes and diffSizes. Static plans have two shapes —
// single-view scratch segments, or one diff-only segment — and for those
// this orders segments as any cost model with a positive slope would. Ties
// keep collection order, so dispatch is deterministic.
func LPTOrder(plan Plan, viewSizes, diffSizes []int) []int {
	size := make([]int, len(plan.Segments))
	order := make([]int, len(plan.Segments))
	for i, seg := range plan.Segments {
		order[i] = i
		size[i] = viewSizes[seg.Start]
		for _, d := range diffSizes[seg.Start+1 : seg.End] {
			size[i] += d
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}
