package dataflow

import (
	"cmp"
	"slices"

	"graphsurge/internal/arrange"
	"graphsurge/internal/timestamp"
)

// keyTimes is one key's slot in a schedule, beside its time set (its span
// of the index's slab): 1 + the outer coordinate the set was last advanced
// to, and whether the key is on the running time's due list.
type keyTimes struct {
	adv uint32
	due bool
}

// keyIndex is a shard's keys with, per key, the times it has been or is
// scheduled to be evaluated at.
type keyIndex[K comparable] struct {
	keyTable[K]
	kts  []keyTimes // per slot
	slab spanSlab[timestamp.Time]
}

// slot returns k's slot, adding an empty one the first time k is seen.
func (ix *keyIndex[K]) slot(hk uint64, k K) uint32 {
	s := ix.keyTable.slot(hk, k)
	if int(s) == len(ix.kts) {
		ix.kts = append(ix.kts, keyTimes{})
		ix.slab.add()
	}
	return s
}

// reset forgets every key, keeping the columns' capacity.
func (ix *keyIndex[K]) reset() {
	ix.keyTable.reset()
	ix.kts = ix.kts[:0]
	ix.slab.reset()
}

// advance clamps slot s's times below the frontier and de-duplicates them,
// and reports whether it did: the owner clamps what else it keeps per key
// in the same pass (see clampRows), once per frontier move. Must not run
// while the key has scheduled re-evaluations (a clamped time would diverge
// from the schedule), which cannot happen here: the frontier only moves
// between versions, when the scope is quiescent, and every scheduled time
// has Outer at or above the version being drained.
func (ix *keyIndex[K]) advance(s uint32, outer uint32) bool {
	kt := &ix.kts[s]
	if kt.adv >= outer+1 {
		return false
	}
	kt.adv = outer + 1
	ts := ix.slab.at(s)
	for i := range ts {
		ts[i] = clampTime(ts[i], outer)
	}
	slices.SortFunc(ts, lexCmp)
	ix.slab.cut(s, len(slices.Compact(ts)))
	return true
}

// clampTime is the compaction clamp: a time below the frontier's outer
// coordinate moves up to it. For any t at or above the frontier, s ≤ t
// exactly when clampTime(s, outer) ≤ t, so what is kept per key may be
// clamped lazily, the next time the key is touched.
func clampTime(t timestamp.Time, outer uint32) timestamp.Time {
	t.Outer = max(t.Outer, outer)
	return t
}

// lexCmp orders times lexicographically, Outer first.
func lexCmp(a, b timestamp.Time) int {
	return cmp.Or(cmp.Compare(a.Outer, b.Outer), cmp.Compare(a.Inner, b.Inner))
}

// dirtyKey is a key scheduled for evaluation: its hash and its slot.
type dirtyKey struct {
	hk   uint64
	slot uint32
}

// schedule is a keyed shard's evaluation schedule, with no per-key heap
// object: per key, a slot in a flat index and the times it has been or is
// scheduled to be evaluated at, a span of a shared slab. Keys due later
// wait in time-ordered (hash, slot) columns; a running time's keys are put
// on the due list once each and sorted by hash, so the owner walks its
// traces with one forward cursor each. The reduce and JoinMin/JoinMax share
// it.
type schedule[K comparable] struct {
	keys  keyIndex[K]
	dirty arrange.Queue[dirtyKey] // keys scheduled at later times (no diffs)
	due   []dirtyKey              // the keys to evaluate at the running time, each once
	front []timestamp.Time        // the join closure's work list
}

// begin opens a run at t: the keys scheduled at t become due, and the due
// list has room for room more.
func (sc *schedule[K]) begin(t timestamp.Time, room int) {
	taken, _ := sc.dirty.Take(t, sc.due, nil)
	sc.due = slices.Grow(taken[:0], len(taken)+min(room, len(sc.keys.kts)))
	for _, d := range taken {
		sc.mark(d)
	}
}

// touch schedules k, whose hash is hk, at nt ⊒ t, the running time, and at
// the lattice-join closure of nt with the key's known times. A key touched
// at t itself is due now, even when t is already in its set (it may have
// been evaluated at t earlier in the round, before what touches it now
// arrived); every other new time waits in dirty. outer is the compaction
// frontier's outer coordinate, which the key's times are clamped to first.
// touch returns the key's slot and whether its times were clamped now.
func (sc *schedule[K]) touch(hk uint64, k K, nt, t timestamp.Time, outer uint32) (uint32, bool) {
	slot := sc.keys.slot(hk, k)
	clamped := sc.keys.advance(slot, outer)
	dk := dirtyKey{hk, slot}
	if nt == t {
		sc.mark(dk)
	}
	front := append(sc.front[:0], nt)
	for len(front) > 0 {
		x := front[len(front)-1]
		front = front[:len(front)-1]
		ts := sc.keys.slab.at(slot)
		if slices.Contains(ts, x) {
			continue
		}
		for _, s := range ts {
			if j := x.Join(s); j != x && j != s && !slices.Contains(ts, j) {
				front = append(front, j)
			}
		}
		sc.keys.slab.push(slot, x)
		if x != t {
			sc.dirty.Push(x, []dirtyKey{dk}, nil, 0)
		}
	}
	sc.front = front
	return slot, clamped
}

// mark puts d's key on the due list unless it is there already.
func (sc *schedule[K]) mark(d dirtyKey) {
	if kt := &sc.keys.kts[d.slot]; !kt.due {
		kt.due = true
		sc.due = append(sc.due, d)
	}
}

// sorted returns the due list in hash order and clears each key's due flag:
// the owner evaluates them all before its run ends.
func (sc *schedule[K]) sorted() []dirtyKey {
	slices.SortFunc(sc.due, func(a, b dirtyKey) int { return cmp.Compare(a.hk, b.hk) })
	for _, d := range sc.due {
		sc.keys.kts[d.slot].due = false
	}
	return sc.due
}

// release lets the recycled due list and dirty columns go.
func (sc *schedule[K]) release() { sc.due, sc.dirty = nil, arrange.Queue[dirtyKey]{} }

// reset forgets every key and every scheduled time, keeping the columns.
func (sc *schedule[K]) reset() {
	sc.keys.reset()
	sc.dirty.Reset()
}
