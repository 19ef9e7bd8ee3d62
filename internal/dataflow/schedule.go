package dataflow

import (
	"slices"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// schedule is a keyed shard's evaluation schedule, per slot of the shard's
// key space (arrange.Keys), with no per-key heap object: one entry per
// iteration the key has been or is scheduled to be evaluated at, its Outer
// the last version that iteration was scheduled in (a span of one slab),
// and whether the key is on the running time's due list. Keys due later
// wait in time-ordered slot columns; a running time's keys are put on the
// due list once each. The reduce and JoinMin/JoinMax share it.
//
// The closure needs no more: every time a key holds is at or below the
// running version v, so the closure of (v, i) with them is (v, i) and (v, j)
// for each iteration j > i the key holds, and compaction, which never moves
// a time up to v, changes neither. So the schedule is never clamped.
type schedule struct {
	times arrange.SpanSlab[timestamp.Time] // per slot: one entry per inner, stamped by version
	on    []bool                           // per slot: on the due list
	dirty arrange.Queue[uint32]            // slots scheduled at later times (no diffs)
	due   []uint32                         // the slots to evaluate at the running time, each once
}

// begin opens a run at t: the keys scheduled at t become due, and the due
// list has room for room more.
func (sc *schedule) begin(t timestamp.Time, room int) {
	taken, _ := sc.dirty.Take(t, sc.due, nil)
	sc.due = slices.Grow(taken[:0], len(taken)+min(room, len(sc.on)))
	for _, s := range taken {
		sc.mark(s)
	}
}

// touch schedules slot s at nt ⊒ t, the running time, at t's version, and
// at its closure: it stamps nt's entry and the entries above it with nt's
// version, queueing each it restamps, and stops at nt's entry if that is
// stamped already (all above it are). A key touched at t is due now, even
// when t is scheduled (it may have been evaluated at t earlier in the
// round); later times wait in dirty.
func (sc *schedule) touch(s uint32, nt, t timestamp.Time) {
	if nt == t {
		sc.mark(s)
	}
	ts, own := sc.times.At(s), false
	for j := range ts {
		switch e := &ts[j]; {
		case e.Inner == nt.Inner:
			if e.Outer == nt.Outer {
				return
			}
			e.Outer, own = nt.Outer, true
		case e.Inner > nt.Inner && e.Outer != nt.Outer:
			e.Outer = nt.Outer
			sc.dirty.Push(*e, []uint32{s}, nil, 0)
		}
	}
	if !own {
		sc.times.Push(s, nt)
	}
	if nt != t {
		sc.dirty.Push(nt, []uint32{s}, nil, 0)
	}
}

// mark puts slot s on the due list unless it is there already.
func (sc *schedule) mark(s uint32) {
	if sc.on = arrange.Grow(sc.on, s); !sc.on[s] {
		sc.on[s] = true
		sc.due = append(sc.due, s)
	}
}

// takeDue returns the due list and clears each key's due flag: the owner
// evaluates them all before its run ends.
func (sc *schedule) takeDue() []uint32 {
	for _, s := range sc.due {
		sc.on[s] = false
	}
	return sc.due
}

// release lets the recycled due list and dirty columns go.
func (sc *schedule) release() { sc.due, sc.dirty = nil, arrange.Queue[uint32]{} }

// reset forgets every key's times and every scheduled time, keeping the
// columns.
func (sc *schedule) reset() {
	sc.times.Reset()
	sc.on = sc.on[:0]
	sc.dirty.Reset()
}
