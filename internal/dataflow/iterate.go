package dataflow

import (
	"graphsurge/internal/timestamp"
)

// delayNode advances each delta by one iteration and feeds it into a target
// collection. It is the feedback edge of a loop: making it a scheduler node
// (rather than a fused closure) guarantees the cycle always yields to the
// scheduler, which processes iterations in order.
type delayNode[R comparable] struct {
	s      *Scope
	target *Collection[R]
	p      *pendings[R]
	// cut, when non-zero, drops deltas whose advanced Inner would exceed it
	// (fixed-iteration loops). Zero means run to fixpoint, bounded only by
	// Scope.MaxIter.
	cut uint32
}

func (n *delayNode[R]) name() string { return "delay" }

func (n *delayNode[R]) run(w int, t timestamp.Time) {
	b := n.p.take(w, t)
	if len(b.recs) == 0 {
		return
	}
	limit := n.cut
	if limit == 0 {
		limit = n.s.MaxIter
		if t.Inner+1 > limit {
			n.s.IterCapHit.Store(true)
			return
		}
	} else if t.Inner+1 > limit {
		return
	}
	b.t = t.Step()
	n.target.emit(w, b)
}

// reset drops any buffered feedback deltas; the loop's wiring (and its
// iteration cut) is structural and survives.
func (n *delayNode[R]) reset() { n.p.reset() }

func (n *delayNode[R]) hasPending(w int, t timestamp.Time) bool { return n.p.has(w, t) }

func (n *delayNode[R]) minPending(w int) (timestamp.Time, bool) { return n.p.min(w) }

// Iterate runs body to fixpoint within each version and returns the loop's
// result stream.
//
// It wires the differential variable X = I ⊕ delay(N) ⊖ delay(I), where I is
// the initial collection and N = body(X): cumulatively X at iteration i
// equals N at iteration i−1, so the loop computes N = body^i(I) until the
// deltas circulating through the feedback edge cancel out — automatic
// fixpoint detection, exactly as in Differential Dataflow. The result keeps
// its (version, iteration) times; consolidating over iterations (as Capture
// does) yields the per-version fixpoint.
//
// Several Iterate loops may be chained in one scope, and then share the
// iteration coordinate: a downstream loop reads an upstream loop's output at
// inner time i as its own input at iteration i. That changes only the
// schedule, not the quiescent state, when the downstream body cannot be
// misled by what it saw early — SCC's colors → done chain (analytics/scc.go)
// qualifies because its match against the current color cuts every stale
// candidate. It does not hold in general: a trim loop chained ahead of SCC's
// coloring loops in one scope did not terminate on some hash seeds. The rule:
// a loop fed by another loop's output that retracts at inner times > 0 needs
// its own scope. Body must contain at least one stateful operator (Reduce),
// which every converging fixpoint needs anyway. Inside body, times carry
// iterations, so the totally ordered inputs are out of reach there:
// JoinMapTotal's right input, the edge and root
// inputs of JoinMin and JoinMax and the edge and base inputs of JoinSum
// panic at an inner time other than 0 (JoinMapTotal's left input and the x
// of JoinMin, JoinMax and JoinSum may be the loop variable).
func Iterate[R comparable](initial *Collection[R], body func(*Collection[R]) *Collection[R]) *Collection[R] {
	return iterate(initial, 0, body)
}

// IterateN runs exactly n applications of body per version (no fixpoint
// test), e.g. a fixed number of PageRank iterations. The result consolidates
// to body^n(I) at each version; differential sharing across versions still
// applies.
func IterateN[R comparable](initial *Collection[R], n uint32, body func(*Collection[R]) *Collection[R]) *Collection[R] {
	if n == 0 {
		return initial
	}
	if n == 1 {
		// A single application needs no feedback: X = I, N = body(I).
		return body(initial)
	}
	// delay forwards deltas with advanced Inner ≤ n−1, so the accumulated
	// result is body^n(I).
	return iterate(initial, n-1, body)
}

func iterate[R comparable](initial *Collection[R], cut uint32, body func(*Collection[R]) *Collection[R]) *Collection[R] {
	s := initial.s
	x := newCollection[R](s)
	delay := &delayNode[R]{s: s, target: x, p: newPendings[R](s), cut: cut}
	s.addNode(delay)

	// X receives I directly...
	initial.subscribe(x.emit)
	// ...and −I through the delay,
	Negate(initial).subscribe(delay.p.push)
	// ...and +N through the delay.
	n := body(x)
	n.subscribe(delay.p.push)
	return n
}
