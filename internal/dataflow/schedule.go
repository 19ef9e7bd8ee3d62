package dataflow

import (
	"slices"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// schedule is a keyed shard's evaluation schedule, per slot of the shard's
// key space (arrange.Keys), with no per-key heap object: the times the key
// has been or is scheduled to be evaluated at, a span of one slab, and
// whether it is on the running time's due list. Keys due later wait in
// time-ordered slot columns; a running time's keys are put on the due list
// once each. The reduce and JoinMin/JoinMax share it.
type schedule struct {
	times arrange.SpanSlab[timestamp.Time] // per slot
	on    []bool                           // per slot: on the due list
	dirty arrange.Queue[uint32]            // slots scheduled at later times (no diffs)
	due   []uint32                         // the slots to evaluate at the running time, each once
	front []timestamp.Time                 // the join closure's work list
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

// touch schedules slot s at nt ⊒ t, the running time, and at the
// lattice-join closure of nt with the key's known times, which the owner
// has clamped. A key touched at t itself is due now, even when t is already
// in its set (it may have been evaluated at t earlier in the round, before
// what touches it now arrived); every other new time waits in dirty.
func (sc *schedule) touch(s uint32, nt, t timestamp.Time) {
	if nt == t {
		sc.mark(s)
	}
	front := append(sc.front[:0], nt)
	for len(front) > 0 {
		x := front[len(front)-1]
		front = front[:len(front)-1]
		ts := sc.times.At(s)
		if slices.Contains(ts, x) {
			continue
		}
		for _, y := range ts {
			if j := x.Join(y); j != x && j != y && !slices.Contains(ts, j) {
				front = append(front, j)
			}
		}
		sc.times.Push(s, x)
		if x != t {
			sc.dirty.Push(x, []uint32{s}, nil, 0)
		}
	}
	sc.front = front
}

// clamp clamps slot s's times to outer and de-duplicates them. It must not
// run while the key has scheduled re-evaluations (a clamped time would
// diverge from the schedule), which cannot happen here: the frontier only
// moves between versions, when the scope is quiescent, and every scheduled
// time has Outer at or above the version being drained.
func (sc *schedule) clamp(s, outer uint32) {
	sc.times.Clamp(s, outer, func(t timestamp.Time) timestamp.Time { return t },
		func(ts []timestamp.Time, _, _, m int, t timestamp.Time) int { ts[m] = t; return m + 1 })
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
