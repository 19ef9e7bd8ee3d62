package dataflow

import "graphsurge/internal/timestamp"

// Input is a handle for feeding updates into a dataflow graph. Each call to
// SendAt introduces the updates at time (version, 0); the driver then calls
// Scope.Drain to process them. Versions must be fed in nondecreasing order —
// the engine's lexicographic scheduler relies on it.
type Input[R comparable] struct {
	s     *Scope
	col   *Collection[R]
	parts []batch[R] // per-worker scratch the updates are written into
}

// NewInput creates an input and the collection carrying its updates.
func NewInput[R comparable](s *Scope) (*Input[R], *Collection[R]) {
	col := newCollection[R](s)
	in := &Input[R]{s: s, col: col, parts: make([]batch[R], s.workers)}
	s.recycles(func() { clear(in.parts) })
	return in, col
}

// Collection returns the stream fed by this input.
func (in *Input[R]) Collection() *Collection[R] { return in.col }

// Send introduces n updates at version v, the i-th being at(i), written
// straight into the input's recycled per-worker batches. Updates are spread
// across workers by record hash so stateless operator chains run in
// parallel; keyed operators re-route by key regardless.
func (in *Input[R]) Send(v uint32, n int, at func(i int) (R, Diff)) {
	in.s.enter(v)
	for w := range in.parts {
		in.parts[w].reset(timestamp.Outer(v), n/len(in.parts))
	}
	for i := 0; i < n; i++ {
		r, d := at(i)
		in.parts[partition(in.s, r)].add(r, d)
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
