package dataflow

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"

	"graphsurge/internal/timestamp"
)

// Delta is one row of a stream: record Rec changed by multiplicity D at
// logical time T, the row form the oracle below consolidates.
type Delta[R comparable] struct {
	Rec R
	T   timestamp.Time
	D   Diff
}

// refConsolidate is the consolidation the engine ran on row batches before
// deltas went columnar — a quadratic merge up to 32 rows, a map above — kept
// as the oracle batch.consolidate is held to.
func refConsolidate[R comparable](rows []Delta[R]) []Delta[R] {
	type recTime struct {
		rec R
		t   timestamp.Time
	}
	if len(rows) <= 32 {
		out := rows[:0]
		n := 0
	next:
		for _, d := range rows[0:] {
			for i := 0; i < n; i++ {
				if out[i].Rec == d.Rec && out[i].T == d.T {
					out[i].D += d.D
					continue next
				}
			}
			out = out[:n+1]
			out[n] = d
			n++
		}
		m := 0
		for i := 0; i < n; i++ {
			if out[i].D != 0 {
				out[m] = out[i]
				m++
			}
		}
		return out[:m]
	}
	acc := make(map[recTime]Diff, len(rows))
	for _, d := range rows {
		acc[recTime{d.Rec, d.T}] += d.D
	}
	out := rows[:0]
	for k, d := range acc {
		if d != 0 {
			out = append(out, Delta[R]{k.rec, k.t, d})
		}
	}
	return out
}

// TestConsolidateMatchesOracle drives the in-place columnar consolidation and
// the old row one through the same seeded batches — both sides of the
// 32-row switch, every record distinct, every record equal, full
// cancellation, and hashes forced equal or nearly so — and compares the
// multisets. It also holds the new one to what the old never promised:
// survivors keep first-arrival order.
func TestConsolidateMatchesOracle(t *testing.T) {
	seed := maphash.MakeSeed()
	hashes := map[string]func(int) uint64{
		"maphash":  func(r int) uint64 { return maphash.Comparable(seed, r) },
		"equal":    func(int) uint64 { return 42 },
		"four":     func(r int) uint64 { return uint64(r) % 4 },
		"identity": func(r int) uint64 { return uint64(r) },
	}
	var idx []uint32 // shared across cases, as a shard's scratch is across takes
	at := timestamp.Time{Outer: 3, Inner: 1}
	for name, hash := range hashes {
		for _, n := range []int{0, 1, 2, 7, 31, 32, 33, 34, 64, 257, 1500} {
			for _, keys := range []int{1, 5, n/2 + 1, 10*n + 1} {
				for _, cancel := range []bool{false, true} {
					r := rand.New(rand.NewSource(int64(n*31 + keys)))
					b := &batch[int]{t: at}
					for len(b.recs) < n {
						rec, d := r.Intn(keys), Diff(r.Intn(5)-2)
						b.add(rec, d)
						if cancel && len(b.recs) < n {
							b.add(rec, -d)
						}
					}
					if cancel && n%2 == 1 {
						b.diffs[n-1] = 0 // the unpaired last row
					}
					rows := make([]Delta[int], len(b.recs))
					var arrival []int
					for i, rec := range b.recs {
						rows[i] = Delta[int]{rec, at, b.diffs[i]}
						arrival = append(arrival, rec)
					}
					want := map[int]Diff{}
					for _, d := range refConsolidate(rows) {
						want[d.Rec] += d.D
					}
					b.consolidate(hash, &idx)
					where := fmt.Sprintf("hash %s, %d rows over %d keys, cancel %v", name, n, keys, cancel)
					if len(b.recs) != len(want) || len(b.diffs) != len(want) {
						t.Fatalf("%s: %d records, %d diffs, want %d", where, len(b.recs), len(b.diffs), len(want))
					}
					if cancel && len(want) != 0 {
						t.Fatalf("%s: oracle kept %v of a fully cancelling batch", where, want)
					}
					pos := 0
					for i, rec := range b.recs {
						if b.diffs[i] == 0 || b.diffs[i] != want[rec] {
							t.Fatalf("%s: record %d has diff %d, want %d", where, rec, b.diffs[i], want[rec])
						}
						delete(want, rec) // a second occurrence then fails the line above
						for arrival[pos] != rec {
							pos++ // panics past the end if survivors are out of arrival order
						}
					}
				}
			}
		}
	}
}

// TestExchangeColumnsRelease pins how long exchange columns live. The
// input's and the fused operators' scratch hands on at most chunkRows rows a
// batch, each announcing the rows still to come, so it is bounded, and the
// scope keeps it for its life: a view of more than chunkRows rows never
// grows it past that, and it survives entering version 1 and Park. Every
// other holder's recycled columns (the pending buffers here) live by
// Scope.release: through version 0, across ResetState and through Park at
// version 0, so a reset scope's next whole view refills them; gone as the
// scope enters version 1, so a whole view's columns are not pinned under
// difference sets; kept from version to version after that, so a
// differential run stops re-growing them; and gone when a scope past version
// 0 is parked, so an idle scope holds none.
func TestExchangeColumnsRelease(t *testing.T) {
	s := NewScope(1)
	in, col := NewInput[int](s)
	// The Map reads a stateful operator's output, which hands it the whole
	// view in one batch.
	mapped := Map(DistinctTotal(col), func(r int) int { return r + 1 })
	var ob *batch[int] // the Map's scratch, as lent to its subscribers
	most := 0          // the most rows the input or the Map handed on at once
	var announced [2]int
	col.subscribe(func(_ int, b *batch[int]) { most, announced[0] = max(most, len(b.recs)), max(announced[0], b.more) })
	mapped.subscribe(func(_ int, b *batch[int]) {
		ob, most, announced[1] = b, max(most, len(b.recs)), max(announced[1], b.more)
	})
	c := NewCapture(mapped)
	view := make([]Update[int], 5000)
	for i := range view {
		view[i] = Update[int]{i, 1}
	}
	retract := make([]Update[int], 10)
	for i := range retract {
		retract[i] = Update[int]{i, -1}
	}
	// scratch is the capacity of the input's and the Map's batches, pending
	// that of the capture's pending buffer (the batch it last took).
	scratch := func() (int, int) { return cap(in.parts[0].recs), cap(ob.recs) }
	pending := func() int { return cap(c.p.sh[0].cur.recs) }
	step := func(v uint32, ups []Update[int]) {
		in.SendAt(v, ups)
		s.Drain()
		s.Compact(v)
	}
	bounded := func(when string) (int, int) {
		t.Helper()
		i, m := scratch()
		if i == 0 || m == 0 || max(i, m, most) > chunkRows {
			t.Fatalf("%s the input's scratch is %d rows, the Map's %d and the largest batch %d, want 1 to %d", when, i, m, most, chunkRows)
		}
		return i, m
	}

	step(0, view)
	bounded("after version 0")
	if p := pending(); p < len(view) {
		t.Fatalf("after version 0 the pending buffer is %d rows, want a view's %d kept", p, len(view))
	}
	if want := len(view) - chunkRows; announced != [2]int{want, want} {
		t.Fatalf("the first chunks of the input and of the Map announced %v rows still to come, want %d each", announced, want)
	}
	s.ResetState()
	step(0, view)
	s.Park()
	i0, m0 := bounded("parked at version 0")
	if p := pending(); p < len(view) {
		t.Fatalf("a reset scope parked at version 0 holds a pending buffer of %d rows, want a view's %d kept", p, len(view))
	}
	released := 0
	s.recycles(func() { released++ })
	in.SendAt(1, retract)
	if p := pending(); released != 1 || p != 0 {
		t.Fatalf("entering version 1 released %d times and left the pending buffer %d rows, want it gone", released, p)
	}
	if i, m := bounded("entering version 1"); i != i0 || m != m0 {
		t.Fatalf("entering version 1 left the input's and the Map's scratch %d and %d rows, want %d and %d kept", i, m, i0, m0)
	}
	s.Drain()
	s.Compact(1)
	if p := pending(); released != 1 || p < len(retract) {
		t.Fatalf("the end of version 1 released %d times in all and left the pending buffer %d rows, want the version's %d kept", released, p, len(retract))
	}
	s.Park()
	if p := pending(); released != 2 || p != 0 {
		t.Fatalf("parking past version 0 released %d times in all and left the pending buffer %d rows, want none", released, p)
	}
	if i, m := bounded("parked past version 0"); i != i0 || m != m0 {
		t.Fatalf("parking past version 0 left the input's and the Map's scratch %d and %d rows, want %d and %d kept", i, m, i0, m0)
	}
	step(2, view[:10])
	if released != 2 { // entering a version past the first has nothing to release
		t.Fatalf("version 2 released %d times in all, want 2", released)
	}
	if got := c.Result(); len(got) != len(view) || got[1] != 1 {
		t.Fatalf("results changed with the columns: %d records, record 1 ×%d", len(got), got[1])
	}
}
