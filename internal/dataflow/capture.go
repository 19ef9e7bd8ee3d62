package dataflow

import "graphsurge/internal/timestamp"

// Capture is a sink that keeps a stream's result and its last difference
// set, consolidating over iterations. It answers the two questions the
// Graphsurge executor asks after each version: what changed at the version
// just fed (Diff), and what is the full result now (Result). No older
// version can be read back.
//
// Read methods must only be called while the scope is quiescent (after
// Drain).
type Capture[R comparable] struct {
	s  *Scope
	p  *pendings[R]
	ws []captured[R] // per worker
}

// captured is one worker's share of a capture: cur is the difference set of
// version ver, the last that reached the worker, and acc everything before
// it, folded into one multiset.
type captured[R comparable] struct {
	cur, acc map[R]Diff
	ver      uint32
}

// NewCapture attaches a capture sink to a collection.
func NewCapture[R comparable](in *Collection[R]) *Capture[R] {
	s := in.s
	c := &Capture[R]{s: s, p: newPendings[R](s), ws: make([]captured[R], s.workers)}
	c.reset()
	in.subscribe(c.p.push)
	s.addNode(c)
	return c
}

func (c *Capture[R]) name() string { return "capture" }

func (c *Capture[R]) run(w int, t timestamp.Time) {
	b := c.p.take(w, t)
	if len(b.recs) == 0 {
		return
	}
	st := &c.ws[w]
	if t.Outer != st.ver {
		// A new version: the last one's differences join the result. Into
		// an empty result the fold is a swap, so a whole view is never
		// copied.
		if len(st.acc) == 0 {
			st.acc, st.cur = st.cur, st.acc
		} else {
			addInto(st.acc, st.cur)
			clear(st.cur)
		}
		st.ver = t.Outer
	}
	for i, r := range b.recs {
		add(st.cur, r, b.diffs[i])
	}
}

// reset swaps in fresh maps on every worker. Clearing them in place would
// keep the last run's capacity, which every later read and fold then scans
// in full however small the runs that follow.
func (c *Capture[R]) reset() {
	c.p.reset()
	for w := range c.ws {
		c.ws[w] = captured[R]{cur: make(map[R]Diff), acc: make(map[R]Diff)}
	}
}

func (c *Capture[R]) hasPending(w int, t timestamp.Time) bool { return c.p.has(w, t) }

func (c *Capture[R]) minPending(w int) (timestamp.Time, bool) { return c.p.min(w) }

// Diff returns the consolidated output difference set of the version the
// scope was last fed: how the result changed relative to the version before.
// The caller owns the map.
func (c *Capture[R]) Diff() map[R]Diff {
	out := make(map[R]Diff)
	for w := range c.ws {
		if c.ws[w].ver == c.s.version {
			addInto(out, c.ws[w].cur)
		}
	}
	return out
}

// DiffCount returns the number of records whose multiplicity changed at the
// version the scope was last fed (the size of the output difference set, the
// paper's |δ output|).
func (c *Capture[R]) DiffCount() int {
	if len(c.ws) == 1 {
		if c.ws[0].ver != c.s.version {
			return 0
		}
		return len(c.ws[0].cur) // run deletes entries that cancel
	}
	return len(c.Diff())
}

// Result returns the accumulated result multiset: every difference set fed
// so far, summed. The caller owns the map.
func (c *Capture[R]) Result() map[R]Diff {
	n := 0
	for w := range c.ws {
		n += len(c.ws[w].acc) + len(c.ws[w].cur)
	}
	out := make(map[R]Diff, n)
	for w := range c.ws {
		addInto(out, c.ws[w].acc)
		addInto(out, c.ws[w].cur)
	}
	return out
}

// add adds d to r's multiplicity in m, deleting r when it cancels.
func add[R comparable](m map[R]Diff, r R, d Diff) {
	if nd := m[r] + d; nd == 0 {
		delete(m, r)
	} else {
		m[r] = nd
	}
}

// addInto adds every multiplicity of src to dst.
func addInto[R comparable](dst, src map[R]Diff) {
	for r, d := range src {
		add(dst, r, d)
	}
}
