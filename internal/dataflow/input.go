package dataflow

import (
	"math"

	"graphsurge/internal/timestamp"
)

// Input is a handle for feeding updates into a dataflow graph. Each call to
// SendAt introduces the updates at time (version, 0); the driver then calls
// Scope.Drain to process them. Versions must be fed in nondecreasing order —
// the engine's lexicographic scheduler relies on it.
type Input[R comparable] struct {
	s     *Scope
	col   *Collection[R]
	parts []batch[R] // per-worker scratch of at most chunkRows rows, kept for the scope's life
}

// NewInput creates an input and the collection carrying its updates.
func NewInput[R comparable](s *Scope) (*Input[R], *Collection[R]) {
	col := newCollection[R](s)
	return &Input[R]{s: s, col: col, parts: make([]batch[R], s.workers)}, col
}

// Collection returns the stream fed by this input.
func (in *Input[R]) Collection() *Collection[R] { return in.col }

// Send introduces n updates at version v, the i-th being at(i), written
// straight into the input's per-worker batches. Updates are spread across
// workers by record hash so stateless operator chains run in parallel; keyed
// operators re-route by key regardless. A worker's batch is handed on each
// time it fills chunkRows rows, so the input's scratch is bounded whatever
// the view's size, and the scope keeps it across versions and Park. Its more
// is an even share of the rows to come plus 4σ of a worker's hash share.
func (in *Input[R]) Send(v uint32, n int, at func(i int) (R, Diff)) {
	in.s.enter(v)
	t := timestamp.Outer(v)
	for w := range in.parts {
		in.parts[w].reset(t, min(n, chunkRows))
	}
	for i := 0; i < n; i++ {
		r, d := at(i)
		w := partition(in.s, r)
		p := &in.parts[w]
		p.add(r, d)
		if len(p.recs) == chunkRows {
			rest, ws := n-i-1, len(in.parts)
			p.more = (rest + 4*int(math.Sqrt(float64(rest*(ws-1))))) / ws
			in.col.emit(w, p)
			p.reset(t, 0)
		}
	}
	for w := range in.parts {
		in.col.emit(w, &in.parts[w])
	}
}

// SendAt introduces a slice of updates at version v.
func (in *Input[R]) SendAt(v uint32, ups []Update[R]) {
	in.Send(v, len(ups), func(i int) (R, Diff) { return ups[i].Rec, ups[i].D })
}

// SendOne introduces a single update at version v.
func (in *Input[R]) SendOne(v uint32, rec R, d Diff) {
	in.SendAt(v, []Update[R]{{rec, d}})
}
