package dataflow

import (
	"graphsurge/internal/timestamp"
)

// Capture is a sink that accumulates a stream's deltas grouped by version
// (the Outer time coordinate), consolidating over iterations. It answers two
// questions the Graphsurge executor needs after each view: what changed at
// this version (VersionDiff), and what is the full result now (At).
//
// Read methods must only be called while the scope is quiescent (after
// Drain).
type Capture[R comparable] struct {
	s  *Scope
	p  *pendings[R]
	st []map[uint32]map[R]Diff // per worker, by version
}

// NewCapture attaches a capture sink to a collection.
func NewCapture[R comparable](in *Collection[R]) *Capture[R] {
	s := in.s
	c := &Capture[R]{
		s:  s,
		p:  newPendings[R](s),
		st: make([]map[uint32]map[R]Diff, s.workers),
	}
	for w := 0; w < s.workers; w++ {
		c.st[w] = make(map[uint32]map[R]Diff)
	}
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
	byv := c.st[w][t.Outer]
	if byv == nil {
		byv = make(map[R]Diff)
		c.st[w][t.Outer] = byv
	}
	for i, r := range b.recs {
		nd := byv[r] + b.diffs[i]
		if nd == 0 {
			delete(byv, r)
		} else {
			byv[r] = nd
		}
	}
}

// reset discards the accumulated output history on every worker by swapping
// in fresh version maps.
func (c *Capture[R]) reset() {
	c.p.reset()
	for w := range c.st {
		c.st[w] = make(map[uint32]map[R]Diff)
	}
}

func (c *Capture[R]) hasPending(w int, t timestamp.Time) bool { return c.p.has(w, t) }

func (c *Capture[R]) minPending(w int) (timestamp.Time, bool) { return c.p.min(w) }

// VersionDiff returns the consolidated output difference set of version v:
// how the result multiset changed relative to version v−1.
func (c *Capture[R]) VersionDiff(v uint32) map[R]Diff {
	out := make(map[R]Diff)
	for w := range c.st {
		for r, d := range c.st[w][v] {
			nd := out[r] + d
			if nd == 0 {
				delete(out, r)
			} else {
				out[r] = nd
			}
		}
	}
	return out
}

// DiffCount returns the number of records whose multiplicity changed at
// version v (the size of the output difference set, the paper's |δ output|).
func (c *Capture[R]) DiffCount(v uint32) int {
	if len(c.st) == 1 {
		return len(c.st[0][v]) // run deletes entries that cancel
	}
	return len(c.VersionDiff(v))
}

// At returns the accumulated result multiset at version v: the sum of all
// difference sets for versions ≤ v.
func (c *Capture[R]) At(v uint32) map[R]Diff {
	out := make(map[R]Diff)
	for w := range c.st {
		for ver, byv := range c.st[w] {
			if ver > v {
				continue
			}
			for r, d := range byv {
				nd := out[r] + d
				if nd == 0 {
					delete(out, r)
				} else {
					out[r] = nd
				}
			}
		}
	}
	return out
}

// Drop folds difference sets for versions < v into version v, bounding
// memory during long collection runs. At(x) for x ≥ v and VersionDiff(x) for
// x > v are unaffected; finer-grained history below v is lost.
func (c *Capture[R]) Drop(v uint32) {
	for w := range c.st {
		var base map[R]Diff
		for ver, byv := range c.st[w] {
			if ver >= v {
				continue
			}
			if base == nil {
				base = c.st[w][v]
				if base == nil {
					base = make(map[R]Diff)
					c.st[w][v] = base
				}
			}
			for r, d := range byv {
				nd := base[r] + d
				if nd == 0 {
					delete(base, r)
				} else {
					base[r] = nd
				}
			}
			delete(c.st[w], ver)
		}
	}
}
