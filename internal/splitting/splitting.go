// Package splitting implements Graphsurge's adaptive collection splitting
// optimizer (paper §5). Running every view of a collection differentially is
// not always fastest: unstable computations (PageRank) or dissimilar
// neighboring views can make differentially "fixing" the previous view's
// computation footprint slower than rerunning from scratch. Splitting the
// collection at view i means running view i from scratch (iterations are
// still shared differentially within the view) and continuing differentially
// from there.
//
// The optimizer observes two signals — (|GV_i|, scratch work) and
// (|δC_i|, differential work) — fits a simple linear model to each, and picks
// the predicted-cheaper mode for each upcoming batch of ℓ views (ℓ = 10 by
// default, matching the paper; batching keeps the engine's indexing efficient
// when consecutive views run differentially). Bootstrap follows the paper:
// view 1 runs from scratch, view 2 differentially, and models take over from
// view 3.
//
// Cost is counted in dataflow work — records processed by stateful
// operators, summed over workers, the proxy Figure 10 plots — not in wall
// time as the paper does. Work carries no timer noise, so with one dataflow
// worker a plan is a function of the collection and the computation alone.
// Work leaves out replica setup and seed building, which a split also pays;
// the scratch model does not charge them.
package splitting

import (
	"math"

	"graphsurge/internal/obs"
)

// Model is an online simple linear regression y ≈ a + b·x. With a single
// observation it predicts proportionally through the origin; with none it
// cannot predict.
type Model struct {
	n                        int
	sumX, sumY, sumXY, sumXX float64
}

// Observe adds a data point.
func (m *Model) Observe(x, y float64) {
	m.n++
	m.sumX += x
	m.sumY += y
	m.sumXY += x * y
	m.sumXX += x * x
}

// Count returns the number of observations.
func (m *Model) Count() int { return m.n }

// Predict estimates y at x. ok is false with no observations.
func (m *Model) Predict(x float64) (y float64, ok bool) {
	switch {
	case m.n == 0:
		return 0, false
	case m.n == 1:
		if m.sumX == 0 {
			return m.sumY, true
		}
		return m.sumY / m.sumX * x, true
	}
	den := float64(m.n)*m.sumXX - m.sumX*m.sumX
	if den == 0 {
		// All observations at the same x: predict their mean.
		return m.sumY / float64(m.n), true
	}
	b := (float64(m.n)*m.sumXY - m.sumX*m.sumY) / den
	a := (m.sumY - b*m.sumX) / float64(m.n)
	p := a + b*x
	if p < 0 {
		p = 0
	}
	return p, true
}

// Mode is an execution mode for one view.
type Mode uint8

const (
	// ModeDiff runs the view differentially on top of the previous views.
	ModeDiff Mode = iota
	// ModeScratch splits the collection: fresh dataflow seeded with the full
	// view.
	ModeScratch
)

func (m Mode) String() string {
	if m == ModeScratch {
		return "scratch"
	}
	return "diff"
}

// DefaultBatchSize is ℓ, the number of views per splitting decision.
const DefaultBatchSize = 10

// Optimizer makes per-batch splitting decisions from observed work.
type Optimizer struct {
	// BatchSize overrides ℓ when > 0.
	BatchSize int

	scratch Model
	diff    Model
	decided int // views whose mode has been decided so far
	mode    Mode
}

// ObserveScratch records a from-scratch run of a view with |GV| = size that
// did the given dataflow work.
func (o *Optimizer) ObserveScratch(size int, work int64) { observe(&o.scratch, size, work) }

// ObserveDiff records a differential run of a view with |δC| = size that did
// the given dataflow work.
func (o *Optimizer) ObserveDiff(size int, work int64) { observe(&o.diff, size, work) }

// observe adds a point to m. When m was already warm, the prediction it
// would have made is first scored as |predicted−actual|/actual — the
// estimator-accuracy signal /metrics exposes. A view that did no work has no
// relative error to score.
func observe(m *Model, size int, work int64) {
	x, y := float64(size), float64(work)
	if pred, warm := m.Predict(x); warm && work > 0 {
		obs.M.EstimatorError.Observe(math.Abs(pred-y) / y)
	}
	m.Observe(x, y)
}

// peekMode returns the mode the current models would choose for a view with
// the given sizes, without advancing the decision state.
func (o *Optimizer) peekMode(viewSize, diffSize int) Mode {
	st, sok := o.scratch.Predict(float64(viewSize))
	dt, dok := o.diff.Predict(float64(diffSize))
	switch {
	case sok && dok:
		if st < dt {
			return ModeScratch
		}
		return ModeDiff
	case sok:
		return ModeScratch
	default:
		return ModeDiff
	}
}

func (o *Optimizer) batch() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultBatchSize
}

// Decide returns the mode for view index i (0-based), given the view's full
// size and difference-set size. Views 0 and 1 are the bootstrap (scratch,
// then differential); afterwards one decision is made per batch of ℓ views by
// comparing the two models' predictions for the view opening the batch.
func (o *Optimizer) Decide(i, viewSize, diffSize int) Mode {
	switch i {
	case 0:
		o.mode, o.decided = ModeScratch, 1
		return ModeScratch
	case 1:
		o.mode, o.decided = ModeDiff, 2
		return ModeDiff
	}
	if i < o.decided {
		return o.mode
	}
	o.mode = o.peekMode(viewSize, diffSize)
	o.decided = i + o.batch()
	return o.mode
}
