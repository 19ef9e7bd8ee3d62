package dataflow

import (
	"math/rand"
	"testing"
)

// TestCaptureDiffCounts reads a capture after each Drain: the difference set
// and its size are the version just fed's, a version whose updates cancel or
// that feeds nothing reports none (not the last version's), a skipped version
// number changes nothing, and the result sums every version.
func TestCaptureDiffCounts(t *testing.T) {
	s := NewScope(2)
	in, col := NewInput[int](s)
	c := NewCapture(col)
	step := func(v uint32, ups []Update[int], diff, result map[int]Diff) {
		t.Helper()
		in.SendAt(v, ups)
		s.Drain()
		if n := c.DiffCount(); n != len(diff) {
			t.Fatalf("v%d: diff count %d, want %d", v, n, len(diff))
		}
		if got := c.Diff(); !equalDiffMaps(got, diff) {
			t.Fatalf("v%d: diff %v, want %v", v, got, diff)
		}
		if got := c.Result(); !equalDiffMaps(got, result) {
			t.Fatalf("v%d: result %v, want %v", v, got, result)
		}
	}
	step(0, []Update[int]{{1, 1}, {2, 1}}, map[int]Diff{1: 1, 2: 1}, map[int]Diff{1: 1, 2: 1})
	step(1, []Update[int]{{3, 1}, {3, -1}}, map[int]Diff{}, map[int]Diff{1: 1, 2: 1})
	step(3, []Update[int]{{1, -1}, {4, 2}}, map[int]Diff{1: -1, 4: 2}, map[int]Diff{2: 1, 4: 2})
	step(4, nil, map[int]Diff{}, map[int]Diff{2: 1, 4: 2})
}

// FuzzCaptureMatchesMultiset holds a capture of a keyed operator, a count
// per key, to a plain-map oracle over 1–16 random versions on 1 or 3
// workers. A version either updates a few random records, feeds nothing,
// swaps a record for another of the same key (the input changes, the counts
// do not), or skips a version number; the scope is reset at a random point
// and runs on from version 0. After every Drain, Result must equal the
// oracle's counts, and Diff and DiffCount their change since the version
// before.
func FuzzCaptureMatchesMultiset(f *testing.F) {
	f.Add(int64(1), uint8(3), false, uint8(255))
	f.Add(int64(2), uint8(15), true, uint8(5))
	f.Add(int64(3), uint8(9), false, uint8(4))
	f.Add(int64(4), uint8(12), true, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, versions uint8, multi bool, resetAt uint8) {
		r := rand.New(rand.NewSource(seed))
		workers := 1
		if multi {
			workers = 3
		}
		s := NewScope(workers)
		in, col := NewInput[KV[int, int]](s)
		c := NewCapture(ReduceCount(col))

		recs := map[KV[int, int]]Diff{}   // the input multiset
		prev := map[KV[int, int64]]Diff{} // the last version's counts
		v := uint32(0)
		for i := 0; i < 1+int(versions)%16; i++ {
			if i == int(resetAt)%16 {
				s.ResetState()
				clear(recs)
				clear(prev)
				v = 0
			}
			var ups []Update[KV[int, int]]
			send := func(rec KV[int, int], d Diff) {
				ups = append(ups, Update[KV[int, int]]{rec, d})
				add(recs, rec, d)
			}
			switch r.Intn(4) {
			case 0: // nothing
			case 1: // a record swapped for another of the same key
				if rec := (KV[int, int]{r.Intn(6), r.Intn(3)}); recs[rec] > 0 {
					send(rec, -1)
					send(KV[int, int]{rec.K, (rec.V + 1 + r.Intn(2)) % 3}, 1)
				}
			case 2: // a skipped version number
				v++
				fallthrough
			default:
				for range 1 + r.Intn(6) {
					rec, d := KV[int, int]{r.Intn(6), r.Intn(3)}, Diff(1)
					if recs[rec] > 0 && r.Intn(2) == 0 {
						d = -1
					}
					send(rec, d)
				}
			}
			in.SendAt(v, ups)
			s.Drain()
			s.Compact(v)

			want := map[KV[int, int64]]Diff{}
			counts := map[int]int64{}
			for rec, d := range recs {
				counts[rec.K] += d
			}
			for k, n := range counts {
				if n != 0 {
					want[KV[int, int64]{k, n}] = 1
				}
			}
			diff := map[KV[int, int64]]Diff{}
			addInto(diff, want)
			for rec, d := range prev {
				add(diff, rec, -d)
			}
			if got := c.Result(); !equalDiffMaps(got, want) {
				t.Fatalf("step %d (v%d): result %v, want %v", i, v, got, want)
			}
			if got := c.Diff(); !equalDiffMaps(got, diff) {
				t.Fatalf("step %d (v%d): diff %v, want %v", i, v, got, diff)
			}
			if n := c.DiffCount(); n != len(diff) {
				t.Fatalf("step %d (v%d): diff count %d, want %d", i, v, n, len(diff))
			}
			prev = want
			v++
		}
	})
}
