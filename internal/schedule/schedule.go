// Package schedule is Graphsurge's cost-model segment scheduler. The
// splitting optimizer (paper §5) fits online linear models of scratch and
// differential cost to pick each view's execution mode; this package turns
// the same predictions into LPT ordering for static plans: predict each
// segment's cost (scratch model on its seed size plus diff model on its
// successors' diff sizes, falling back to the raw sizes while the models are
// cold) and dispatch segments longest-predicted-first onto the replica pool.
// For skewed collections this tightens the makespan the same way Longest
// Processing Time tightens any list schedule — the largest segment can no
// longer land last and serialize the tail.
//
// The Estimator here is deliberately separate from the adaptive optimizer's
// per-run models: an engine keeps one Estimator per (computation, workers)
// across RunCollection calls, so a static-mode run can be scheduled with
// costs learned from earlier runs, while each adaptive run still bootstraps
// its own optimizer exactly as the paper describes.
package schedule

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"graphsurge/internal/obs"
	"graphsurge/internal/splitting"
)

// Policy selects the dispatch order for a static plan's segments.
type Policy uint8

const (
	// FIFO dispatches segments in collection order (the pre-scheduler
	// behavior).
	FIFO Policy = iota
	// LPT dispatches segments longest-predicted-first.
	LPT
)

func (p Policy) String() string {
	if p == LPT {
		return "lpt"
	}
	return "fifo"
}

// ParsePolicy parses a CLI policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo", "":
		return FIFO, nil
	case "lpt":
		return LPT, nil
	}
	return FIFO, fmt.Errorf("schedule: unknown policy %q (want fifo or lpt)", s)
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

// Estimator is a concurrency-safe online cost model for segment scheduling:
// the same two simple linear regressions the splitting optimizer fits —
// (|GV|, scratch seconds) and (|δC|, differential seconds) — behind a mutex
// so segment executor goroutines can feed observations while a scheduler
// reads predictions. The zero value is a cold estimator, ready for use.
type Estimator struct {
	mu      sync.Mutex
	scratch splitting.Model
	diff    splitting.Model
}

// ObserveScratch records a from-scratch run of a view with |GV| = size.
// When the scratch model was already warm, the prediction it would have
// made for this view is scored against the measurement first — the
// estimator-accuracy signal /metrics exposes.
func (e *Estimator) ObserveScratch(size int, d time.Duration) {
	e.mu.Lock()
	pred, warm := e.scratch.Predict(float64(size))
	e.scratch.Observe(float64(size), d.Seconds())
	e.mu.Unlock()
	scorePrediction(pred, warm, d)
}

// ObserveDiff records a differential run of a view with |δC| = size,
// scoring the diff model's prediction like ObserveScratch.
func (e *Estimator) ObserveDiff(size int, d time.Duration) {
	e.mu.Lock()
	pred, warm := e.diff.Predict(float64(size))
	e.diff.Observe(float64(size), d.Seconds())
	e.mu.Unlock()
	scorePrediction(pred, warm, d)
}

// scorePrediction feeds |predicted−actual|/actual into the estimator
// error histogram. Sub-microsecond measurements are skipped: their
// relative error is all timer noise and would drown the signal.
func scorePrediction(pred float64, warm bool, actual time.Duration) {
	secs := actual.Seconds()
	if !warm || secs < 1e-6 {
		return
	}
	err := pred - secs
	if err < 0 {
		err = -err
	}
	obs.M.EstimatorError.Observe(err / secs)
}

// Observations reports how many scratch and differential runs the estimator
// has seen (observability, tests).
func (e *Estimator) Observations() (scratch, diff int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.scratch.Count(), e.diff.Count()
}

// SegmentCost predicts the wall time of one segment: the scratch cost of
// its seed view plus the diff cost of each differential successor. The
// returned cost is in seconds when modeled is true. When any needed model
// is still cold the whole segment falls back to the raw sizes as a unitless
// proxy — sizes and seconds must not be mixed within one cost, and for LPT
// only the relative order matters, which the size proxy preserves (cost
// grows with work either way).
func (e *Estimator) SegmentCost(seedSize int, diffSizes []int) (cost float64, modeled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	total, ok := e.scratch.Predict(float64(seedSize))
	for _, d := range diffSizes {
		if !ok {
			break
		}
		dt, dok := e.diff.Predict(float64(d))
		total, ok = total+dt, dok
	}
	if ok {
		return total, true
	}
	proxy := float64(seedSize)
	for _, d := range diffSizes {
		proxy += float64(d)
	}
	return proxy, false
}

// PlanCosts predicts every segment's cost for a plan over a collection with
// the given per-view full sizes and difference-set sizes.
func (e *Estimator) PlanCosts(plan splitting.Plan, viewSizes, diffSizes []int) []float64 {
	costs := make([]float64, len(plan.Segments))
	for i, seg := range plan.Segments {
		costs[i], _ = e.SegmentCost(viewSizes[seg.Start], diffSizes[seg.Start+1:seg.End])
	}
	return costs
}

// LPTOrder returns a dispatch permutation over the segments, longest
// predicted cost first. Ties keep collection order (stable), so the
// permutation — and therefore dispatch — is deterministic for equal costs.
func LPTOrder(costs []float64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return order
}
