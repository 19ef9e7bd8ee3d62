package dataflow

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"graphsurge/internal/timestamp"
)

// refSchedule is the schedule as a map of sets: every time each key has been
// or is to be evaluated at, closed under lattice joins by an explicit work
// list, with old versions clamped to the frontier when the scope compacts.
type refSchedule struct {
	times map[uint32]map[timestamp.Time]bool // per slot
	dirty map[timestamp.Time]map[uint32]bool // per later time, its slots
	now   map[uint32]bool                    // the slots due at the running time
}

func newRefSchedule() *refSchedule {
	return &refSchedule{map[uint32]map[timestamp.Time]bool{}, map[timestamp.Time]map[uint32]bool{}, map[uint32]bool{}}
}

// begin makes the slots scheduled at t due.
func (r *refSchedule) begin(t timestamp.Time) {
	r.now = r.dirty[t]
	if r.now == nil {
		r.now = map[uint32]bool{}
	}
	delete(r.dirty, t)
}

// touch schedules slot s at nt ⊒ t and at the lattice-join closure of nt
// with the key's times.
func (r *refSchedule) touch(s uint32, nt, t timestamp.Time) {
	if nt == t {
		r.now[s] = true
	}
	ts := r.times[s]
	if ts == nil {
		ts = map[timestamp.Time]bool{}
		r.times[s] = ts
	}
	front := []timestamp.Time{nt}
	for len(front) > 0 {
		x := front[len(front)-1]
		front = front[:len(front)-1]
		if ts[x] {
			continue
		}
		for y := range ts {
			if j := x.Join(y); j != x && j != y && !ts[j] {
				front = append(front, j)
			}
		}
		ts[x] = true
		if x != t {
			if r.dirty[x] == nil {
				r.dirty[x] = map[uint32]bool{}
			}
			r.dirty[x][s] = true
		}
	}
}

// clamp moves every time below version outer up to it, merging equal times.
func (r *refSchedule) clamp(outer uint32) {
	for s, ts := range r.times {
		clamped := map[timestamp.Time]bool{}
		for x := range ts {
			clamped[timestamp.Time{Outer: max(x.Outer, outer), Inner: x.Inner}] = true
		}
		r.times[s] = clamped
	}
}

// min returns the least scheduled later time, lexicographically.
func (r *refSchedule) min() (timestamp.Time, bool) {
	var m timestamp.Time
	found := false
	for x := range r.dirty {
		if !found || x.LexLess(m) {
			m, found = x, true
		}
	}
	return m, found
}

// FuzzScheduleMatchesClosure drives one schedule and the map-of-sets
// reference with the same touches, at running times that go up
// lexicographically as a scope's do: a run's touches are at nt ⊒ t at t's
// version, a version ends when nothing is scheduled, and the next one starts
// at a later version (numbers may be skipped). Iterations reach up to 256, so
// keys hold many more than 64 of them. A scope that compacts clamps the
// reference's old versions to the frontier after most versions; one that
// does not keeps every version's times. Some runs reset both and start over
// at version 0. After each begin the slots due must be those the reference
// has scheduled at t, after the run's touches those plus the slots touched
// at t itself, and the schedule's next time the reference's.
func FuzzScheduleMatchesClosure(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(4), false, uint8(255))
	f.Add(int64(2), uint8(255), uint8(3), true, uint8(255))
	f.Add(int64(3), uint8(63), uint8(7), false, uint8(9))
	f.Add(int64(4), uint8(200), uint8(1), true, uint8(20))
	f.Add(int64(5), uint8(2), uint8(0), false, uint8(255))
	f.Add(int64(6), uint8(127), uint8(5), true, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, inners, slots uint8, compact bool, resetAt uint8) {
		r := rand.New(rand.NewSource(seed))
		top, keys := 1+int(inners), 1+int(slots)%8
		var sc schedule
		ref := newRefSchedule()
		now := timestamp.Time{}
		for step := 0; step < 1500; step++ {
			if step == int(resetAt)*2 {
				sc.reset()
				ref = newRefSchedule()
				now = timestamp.Time{}
			}
			sc.begin(now, 4)
			ref.begin(now)
			if got, want := slices.Sorted(slices.Values(sc.due)), slices.Sorted(maps.Keys(ref.now)); !slices.Equal(got, want) {
				t.Fatalf("step %d at %v: due after begin %v, want %v", step, now, got, want)
			}
			for range r.Intn(5) {
				s, nt := uint32(r.Intn(keys)), now
				if int(now.Inner) < top && r.Intn(3) > 0 {
					nt.Inner += uint32(r.Intn(top - int(now.Inner)))
				}
				sc.touch(s, nt, now)
				ref.touch(s, nt, now)
			}
			if got, want := slices.Sorted(slices.Values(sc.takeDue())), slices.Sorted(maps.Keys(ref.now)); !slices.Equal(got, want) {
				t.Fatalf("step %d at %v: due %v, want %v", step, now, got, want)
			}

			// The next running time: the least scheduled one, or a time
			// before it that other input brings, or, once nothing is
			// scheduled, a later version.
			next, ok := ref.min()
			if got, has := sc.dirty.Min(); has != ok || got != next {
				t.Fatalf("step %d at %v: next scheduled time %v (%v), want %v (%v)", step, now, got, has, next, ok)
			}
			switch {
			case ok && next.Inner > now.Inner+1 && r.Intn(4) == 0:
				next.Inner = now.Inner + 1 + uint32(r.Intn(int(next.Inner-now.Inner-1)))
			case !ok && r.Intn(3) == 0:
				next = timestamp.Time{Outer: now.Outer, Inner: now.Inner + 1 + uint32(r.Intn(4))}
			case !ok:
				if compact && r.Intn(4) > 0 {
					ref.clamp(now.Outer)
				}
				next = timestamp.Time{Outer: now.Outer + 1 + uint32(r.Intn(2)), Inner: uint32(r.Intn(2))}
			}
			now = next
		}
	})
}
