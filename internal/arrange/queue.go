package arrange

import (
	"slices"
	"sort"

	"graphsurge/internal/timestamp"
)

// Queue is a columnar time-bucketed delta buffer: per distinct timestamp,
// parallel record and diff columns. Buckets are kept sorted by lexicographic
// time, so the minimum pending time is O(1) instead of a map scan.
//
// Column sets are recycled: recs and diffs hold the buckets' columns in
// their first len(times) entries and spent, emptied column sets after them.
// A new bucket starts in a spent set, Take swaps a bucket's set for the
// caller's previous one, and Reset turns every bucket into a spent set, so
// the queue holds as many sets as it had buckets (plus the caller's) at
// once, each at its high-water capacity, until Release. A queue of bare
// records (a reduce's schedule of dirty keys) passes nil diffs throughout.
//
// A Queue is not self-synchronizing; callers shard one queue per worker and
// guard cross-worker pushes with their own lock (see dataflow's pendings).
type Queue[R any] struct {
	times []timestamp.Time // ascending lex order
	recs  [][]R
	diffs [][]int64
	last  int // the bucket Push last filled; a hint, checked before use
}

// bucket returns the index of t's bucket and whether it exists; when it
// does not, the index is the sorted insertion point. A schedule's touch
// restamps a key's entries at ascending inner times, one push each, so the
// bucket after the one the last push filled is tried first, and that bucket
// itself; on similar.diff they take 53 % and 8 % of the lookups that find a
// bucket, and the search runs for the rest.
func (q *Queue[R]) bucket(t timestamp.Time) (int, bool) {
	if i := q.last + 1; i < len(q.times) && q.times[i] == t {
		return i, true
	}
	if i := q.last; i < len(q.times) && q.times[i] == t {
		return i, true
	}
	i := sort.Search(len(q.times), func(i int) bool { return !q.times[i].LexLess(t) })
	return i, i < len(q.times) && q.times[i] == t
}

// Push appends the rows of two parallel columns to t's bucket, creating it
// in time order if absent. The columns are copied, not kept. more is the
// caller's estimate of the rows it will push at t after these: a bucket that
// must grow grows once to hold them too, instead of once per push.
func (q *Queue[R]) Push(t timestamp.Time, recs []R, diffs []int64, more int) {
	i, ok := q.bucket(t)
	if !ok {
		n := len(q.times)
		if len(q.recs) == n {
			q.recs, q.diffs = append(q.recs, nil), append(q.diffs, nil)
		}
		fr, fd := q.recs[n], q.diffs[n] // a spent set, shifted over below
		q.times = append(q.times, t)
		copy(q.times[i+1:], q.times[i:n])
		copy(q.recs[i+1:n+1], q.recs[i:n])
		copy(q.diffs[i+1:n+1], q.diffs[i:n])
		q.times[i], q.recs[i], q.diffs[i] = t, fr, fd
	}
	q.last = i
	if n := len(q.recs[i]) + len(recs); n > cap(q.recs[i]) && more > 0 {
		q.recs[i] = slices.Grow(q.recs[i], len(recs)+more)
		if diffs != nil {
			q.diffs[i] = slices.Grow(q.diffs[i], len(recs)+more)
		}
	}
	q.recs[i] = append(q.recs[i], recs...)
	q.diffs[i] = append(q.diffs[i], diffs...)
}

// Take removes t's bucket and returns its columns, keeping the caller's
// previous columns (recs, diffs: their contents are dropped) as a spent set.
// When t has no bucket the caller gets its own columns back, emptied.
func (q *Queue[R]) Take(t timestamp.Time, recs []R, diffs []int64) ([]R, []int64) {
	i, ok := q.bucket(t)
	if !ok {
		return recs[:0], diffs[:0]
	}
	r, d := q.recs[i], q.diffs[i]
	n := len(q.times) - 1
	copy(q.times[i:], q.times[i+1:])
	copy(q.recs[i:n], q.recs[i+1:n+1])
	copy(q.diffs[i:n], q.diffs[i+1:n+1])
	q.times, q.recs[n], q.diffs[n] = q.times[:n], recs[:0], diffs[:0]
	return r, d
}

// Release drops the spent column sets.
func (q *Queue[R]) Release() {
	n := len(q.times)
	clear(q.recs[n:])
	clear(q.diffs[n:])
	q.recs, q.diffs = q.recs[:n], q.diffs[:n]
}

// Has reports whether any delta is buffered at exactly t.
func (q *Queue[R]) Has(t timestamp.Time) bool {
	_, ok := q.bucket(t)
	return ok
}

// Min returns the lexicographically smallest buffered time.
func (q *Queue[R]) Min() (timestamp.Time, bool) {
	if len(q.times) == 0 {
		return timestamp.Time{}, false
	}
	return q.times[0], true
}

// Reset drops all buckets, emptying their columns in place for reuse: O(1)
// per bucket, independent of how many deltas were buffered.
func (q *Queue[R]) Reset() {
	q.times = q.times[:0]
	for i := range q.recs {
		q.recs[i], q.diffs[i] = q.recs[i][:0], q.diffs[i][:0]
	}
}
