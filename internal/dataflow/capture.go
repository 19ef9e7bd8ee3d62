package dataflow

import (
	"hash/maphash"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// Capture is a sink that keeps a stream's result and its last difference
// set, consolidating over iterations. It answers the two questions the
// Graphsurge executor asks after each version: what changed at the version
// just fed (Diff), and what is the full result now (Result). No older
// version can be read back.
//
// Each worker keeps its share the way a totally ordered operator keeps its
// counts: a key table of the records it has seen and, per slot, two
// columns, acc (the record's multiplicity before version ver) and cur (its
// difference at ver), plus the list of slots ver touched. Slots the table
// gained at ver are touched by construction and have no acc yet: acc, and
// the list, cover the older slots only, so a version 0, a whole view, keeps
// just the table and cur. A delta at a new version first folds the touched
// slots' cur into acc. So the fold, Diff and DiffCount cost the version's
// differences and Result the slots held, never a capacity an earlier,
// larger run left behind. A record that cancels keeps its slot until a fold
// leaves more than 2 × live + 64 slots (live: the slots whose acc is not
// zero); the fold then rebuilds the table in place from the live slots, so
// a capture extended over many versions holds slots in proportion to its
// result, not to every record it ever saw.
//
// Read methods must only be called while the scope is quiescent (after
// Drain).
type Capture[R comparable] struct {
	s  *Scope
	p  *pendings[R]
	ws []captured[R] // per worker
}

// captured is one worker's share of a capture. The slots below len(acc)
// existed before ver; the rest were added at ver.
type captured[R comparable] struct {
	keys    arrange.KeyTable[R]
	cur     []Diff   // per slot
	acc     []Diff   // per slot before ver
	marked  []bool   // per slot before ver: listed in touched
	touched []uint32 // the slots before ver that ver touched, in order
	live    int      // the slots whose acc is not zero
	ver     uint32   // the last version that reached the worker
}

// NewCapture attaches a capture sink to a collection.
func NewCapture[R comparable](in *Collection[R]) *Capture[R] {
	s := in.s
	c := &Capture[R]{s: s, p: newPendings[R](s), ws: make([]captured[R], s.workers)}
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
		st.fold()
		st.ver = t.Outer
	}
	for i, r := range b.recs {
		s := st.keys.Slot(maphash.Comparable(c.s.seed, r), r)
		switch {
		case int(s) == len(st.cur):
			st.cur = append(st.cur, 0)
		case int(s) < len(st.acc) && !st.marked[s]:
			st.marked[s], st.touched = true, append(st.touched, s)
		}
		st.cur[s] += b.diffs[i]
	}
}

// fold adds ver's differences into acc, which then covers every slot, and
// leaves cur all zero; it rebuilds the table from the live slots once the
// slots outnumber 2 × live + 64.
func (st *captured[R]) fold() {
	for _, s := range st.touched {
		was := st.acc[s]
		now := was + st.cur[s]
		st.acc[s], st.cur[s], st.marked[s] = now, 0, false
		if was == 0 && now != 0 {
			st.live++
		} else if was != 0 && now == 0 {
			st.live--
		}
	}
	st.touched = st.touched[:0]
	old := len(st.acc)
	for _, d := range st.cur[old:] {
		if d != 0 {
			st.live++
		}
	}
	st.acc = append(st.acc, st.cur[old:]...)
	st.marked = append(st.marked, make([]bool, len(st.cur)-old)...)
	clear(st.cur[old:])
	if len(st.cur) <= 2*st.live+64 {
		return
	}
	n := 0
	st.keys.Retain(func(s uint32) bool {
		if st.acc[s] == 0 {
			return false
		}
		st.acc[n], n = st.acc[s], n+1
		return true
	})
	st.cur, st.acc, st.marked = st.cur[:n], st.acc[:n], st.marked[:n]
}

// reset truncates every worker's key table and columns in place, so the
// next run fills the arrays this one grew.
func (c *Capture[R]) reset() {
	c.p.reset()
	for w := range c.ws {
		st := &c.ws[w]
		st.keys.Reset()
		st.cur, st.acc, st.marked, st.touched = st.cur[:0], st.acc[:0], st.marked[:0], st.touched[:0]
		st.live, st.ver = 0, 0
	}
}

func (c *Capture[R]) hasPending(w int, t timestamp.Time) bool { return c.p.has(w, t) }

func (c *Capture[R]) minPending(w int) (timestamp.Time, bool) { return c.p.min(w) }

// diffs visits each worker's differences at the version the scope was last
// fed, worker by worker: a record that reached several workers is visited
// once per worker.
func (c *Capture[R]) diffs(f func(r R, d Diff)) {
	for w := range c.ws {
		st := &c.ws[w]
		if st.ver != c.s.version {
			continue
		}
		for _, s := range st.touched {
			if d := st.cur[s]; d != 0 {
				f(st.keys.KeyAt(s), d)
			}
		}
		for s := len(st.acc); s < len(st.cur); s++ {
			if d := st.cur[s]; d != 0 {
				f(st.keys.KeyAt(uint32(s)), d)
			}
		}
	}
}

// Diff returns the consolidated output difference set of the version the
// scope was last fed: how the result changed relative to the version before.
// The caller owns the map.
func (c *Capture[R]) Diff() map[R]Diff {
	out := make(map[R]Diff)
	c.diffs(func(r R, d Diff) { add(out, r, d) })
	return out
}

// AppendDiff appends Diff's differences to dst as updates and returns the
// extended slice. With more than one worker a record may appear once per
// worker that it reached, so the updates are an input's worth, not
// consolidated.
func (c *Capture[R]) AppendDiff(dst []Update[R]) []Update[R] {
	c.diffs(func(r R, d Diff) { dst = append(dst, Update[R]{r, d}) })
	return dst
}

// DiffCount returns the number of records whose multiplicity changed at the
// version the scope was last fed (the size of the output difference set, the
// paper's |δ output|).
func (c *Capture[R]) DiffCount() int {
	if len(c.ws) > 1 {
		return len(c.Diff())
	}
	n := 0
	c.diffs(func(R, Diff) { n++ })
	return n
}

// Result returns the accumulated result multiset: every difference set fed
// so far, summed. The caller owns the map.
func (c *Capture[R]) Result() map[R]Diff {
	n := 0
	for w := range c.ws {
		st := &c.ws[w]
		n += st.live + len(st.touched) + len(st.cur) - len(st.acc)
	}
	out := make(map[R]Diff, n)
	for w := range c.ws {
		st := &c.ws[w]
		for s, d := range st.cur {
			if s < len(st.acc) {
				d += st.acc[s]
			}
			if d != 0 {
				add(out, st.keys.KeyAt(uint32(s)), d)
			}
		}
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
