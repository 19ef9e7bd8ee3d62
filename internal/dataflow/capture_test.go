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

// TestCaptureRerunAllocs reruns Input → Capture after ResetState, a version
// 0 of n records and then a version 1 of 100, on 1 and 2 workers, and
// requires the same allocations per rerun at every n: a reset capture
// refills the key table and columns its last run grew, so nothing it
// allocates grows with the view. On 2 workers a worker's hash share of the
// rows still to come may run above an even split; the margin the input
// announces keeps its pending bucket to one growth.
// The largest n is 30 000, whose version-0 batch still consolidates within
// the index the pending buffers keep (keptIdx); a larger batch's index is
// let go on entering version 1 and regrown by the next version 0, two
// allocations by design that are not the capture's. The race detector adds
// temporaries of its own (slices.Grow allocates one per call in a race
// build), so a race build only checks the reruns' answers.
func TestCaptureRerunAllocs(t *testing.T) {
	allocs := map[int][]float64{}
	for _, workers := range []int{1, 2} {
		for _, n := range []int{1000, 10000, 30000} {
			s := NewScope(workers)
			in, col := NewInput[int](s)
			c := NewCapture(col)
			view := make([]Update[int], n)
			for i := range view {
				view[i] = Update[int]{i, 1}
			}
			next := make([]Update[int], 100)
			for i := range next {
				next[i] = Update[int]{i, -1} // 50 retractions, 50 new records
				if i%2 == 1 {
					next[i] = Update[int]{n + i, 1}
				}
			}
			allocs[workers] = append(allocs[workers], testing.AllocsPerRun(5, func() {
				s.ResetState()
				in.SendAt(0, view)
				s.Drain()
				in.SendAt(1, next)
				s.Drain()
				if d := c.DiffCount(); d != len(next) {
					t.Fatalf("workers=%d n=%d: version 1 changed %d records, want %d", workers, n, d, len(next))
				}
			}))
		}
	}
	if raceBuild {
		t.Skipf("race build: allocations per rerun %v are not the normal build's", allocs)
	}
	for workers, a := range allocs {
		if a[0] != a[1] || a[1] != a[2] {
			t.Fatalf("allocations per rerun on %d workers at n = 1 000, 10 000, 30 000: %v, want them equal", workers, a)
		}
	}
}

// TestCaptureBoundsChurnedSlots churns 10 000 records through a capture on
// 1 and 2 workers: each version retracts every live record and asserts 100
// new ones. After every Drain, Result and Diff must match the oracle, and
// the key tables must hold at most 2 × live + 64 slots per worker, where
// live counts the records the capture answers for, in Result or in Diff.
// Without the fold's rebuild they would hold every record ever seen. Each
// worker's count of live slots, which decides the rebuild, must match its
// acc column.
func TestCaptureBoundsChurnedSlots(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s := NewScope(workers)
		in, col := NewInput[int](s)
		c := NewCapture(col)
		want := map[int]Diff{}
		for v, fresh := uint32(0), 0; fresh < 10000; v++ {
			var ups []Update[int]
			diff := map[int]Diff{}
			for r := range want {
				ups, diff[r] = append(ups, Update[int]{r, -1}), -1
			}
			clear(want)
			for range 100 {
				ups, diff[fresh], want[fresh] = append(ups, Update[int]{fresh, 1}), 1, 1
				fresh++
			}
			in.SendAt(v, ups)
			s.Drain()
			s.Compact(v)
			if got := c.Result(); !equalDiffMaps(got, want) {
				t.Fatalf("%d workers, v%d: result has %d records, want %d", workers, v, len(got), len(want))
			}
			if got := c.Diff(); !equalDiffMaps(got, diff) || c.DiffCount() != len(diff) {
				t.Fatalf("%d workers, v%d: diff has %d records (count %d), want %d", workers, v, len(got), c.DiffCount(), len(diff))
			}
			slots := 0
			for w := range c.ws {
				st := &c.ws[w]
				slots += len(st.cur)
				live := 0
				for _, d := range st.acc {
					live += b2i(d != 0)
				}
				if live != st.live {
					t.Fatalf("%d workers, v%d: worker %d counts %d live slots, holds %d", workers, v, w, st.live, live)
				}
			}
			if bound := 2*len(diff) + 64*workers; slots > bound {
				t.Fatalf("%d workers, v%d: %d slots for %d live records, want at most %d", workers, v, slots, len(diff), bound)
			}
		}
	}
}

// FuzzCaptureMatchesMultiset holds a capture of a keyed operator, a count
// per key, to a plain-map oracle over 1–16 random versions on 1 or 3
// workers. A version either updates a few random records, feeds nothing,
// swaps a record for another of the same key (the input changes, the counts
// do not), skips a version number, or churns: it retracts every live record
// and asserts 32 to 95 records of keys never seen before, so the count
// records it retracts leave dead slots behind, and a few churns outnumber
// the live ones by enough that a fold rebuilds the table. The scope is reset
// at a random point and runs on from version 0. After every Drain, Result
// must equal the oracle's counts, and Diff and DiffCount their change since
// the version before.
func FuzzCaptureMatchesMultiset(f *testing.F) {
	f.Add(int64(1), uint8(3), false, uint8(255))
	f.Add(int64(2), uint8(15), true, uint8(5))
	f.Add(int64(3), uint8(9), false, uint8(4))
	f.Add(int64(4), uint8(12), true, uint8(0))
	// Churns whose folds rebuild the table two or three times, on 1 worker
	// and on 3, with no reset, a late one (1 worker) and an early one (3).
	f.Add(int64(29), uint8(15), false, uint8(255))
	f.Add(int64(62), uint8(15), true, uint8(255))
	f.Add(int64(39), uint8(15), false, uint8(13))
	f.Add(int64(136), uint8(15), true, uint8(4))
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
		fresh := 6 // the next key a churn asserts; the other kinds use 0–5
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
			switch r.Intn(5) {
			case 0: // nothing
			case 4: // churn
				for rec, d := range recs {
					send(rec, -d)
				}
				for range 32 + r.Intn(64) {
					send(KV[int, int]{fresh, r.Intn(3)}, 1)
					fresh++
				}
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

// addInto adds every multiplicity of src to dst.
func addInto[R comparable](dst, src map[R]Diff) {
	for r, d := range src {
		add(dst, r, d)
	}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
