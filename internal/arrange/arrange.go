// Package arrange implements columnar arrangements: immutable, sorted,
// columnar batches of (key, value, time, diff) tuples with a streaming
// clamp-merge, directory lookup, and O(1) copy-on-write snapshot sharing.
// It is the Go equivalent of Differential Dataflow's arrangement substrate
// (the paper's §5 "shared arrangements"): a trace is a small stack of
// immutable batches plus a bounded mutable stage, so dropping all state is
// a pointer release rather than a map walk, and snapshotting is a slice
// copy of batch references rather than a deep copy of tuples.
//
// Keys and values are arbitrary comparable types; batches order tuples by
// (maphash(key), time, maphash(value)). A tuple is hashed once, when it
// enters the trace. The hash order is not meaningful across processes, but
// it is stable within a trace, groups equal keys into contiguous runs, and
// makes equal (key, value, time) tuples adjacent so merges consolidate
// diffs as they emit. Hash collisions only cost a short equality-checked
// scan within the run. Uniform hashes also let the stage keep an index of
// its rows on the top bits of their hashes as they arrive (stageIndex), which
// lookups and cursors walk and a seal reads out in hash order.
package arrange

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"

	"graphsurge/internal/timestamp"
)

// stageThreshold is the number of staged tuples that triggers sealing into
// an immutable batch. It bounds the cost of snapshotting a trace (the stage
// is the only part copied) and, with stageShift, the stage index's tables,
// whose uint16 links hold 1 + a row's index: it must stay below 1<<16.
const stageThreshold = 1024

// stageShift keeps the top 11 bits of a key hash, the stage index's bucket:
// about two buckets per staged row.
const stageShift = 64 - 11

// stageIndex lists the staged rows by bucket, each bucket's rows in arrival
// order. A link is 1 + a row's index, so 0 ends a chain.
type stageIndex struct {
	head, tail [1 << (64 - stageShift)]uint16 // per bucket: its first and last row; head 0 when empty
	next       [stageThreshold]uint16         // per row: the next row in its bucket
}

// link adds row i, of key hash hk, at the end of its bucket.
func (x *stageIndex) link(hk uint64, i int) {
	p, r := hk>>stageShift, uint16(i+1)
	if x.next[i] = 0; x.head[p] == 0 {
		x.head[p] = r
	} else {
		x.next[x.tail[p]-1] = r
	}
	x.tail[p] = r
}

// Batch is a columnar run of tuples. A sealed batch is immutable and ordered
// by (hks, times lex, hvs); equal keys form one contiguous run found through
// dir. Sealed batches are shared by reference between a trace and its
// snapshots. A trace's stage is a Batch in arrival order, without dir.
type Batch[K comparable, V comparable] struct {
	hks   []uint64 // maphash of keys, the primary sort key
	keys  []K
	vals  []V
	hvs   []uint64 // maphash of vals, the tie-break within (hk, time)
	times []timestamp.Time
	diffs []int64

	dir    []uint32 // dir[p] is the first row whose hk>>shift is at least p
	shift  uint8
	shared bool // a Snapshot references the batch: its columns are never recycled
}

// Len returns the number of tuples in the batch.
func (b *Batch[K, V]) Len() int { return len(b.keys) }

// seek returns the first row at or after row from whose key hash is at least
// hk, given that every row before from hashes below hk: one directory probe
// (hashes are uniform, so a bucket holds a handful of rows), then a binary
// search inside what is left of the bucket.
func (b *Batch[K, V]) seek(hk uint64, from int) int {
	p := hk >> b.shift
	lo := max(int(b.dir[p]), from)
	hi := max(int(b.dir[p+1]), lo)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); b.hks[m] < hk {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// index builds the directory of a freshly written batch: one bucket per
// eight rows or so, keyed by the top bits of the key hash.
func (b *Batch[K, V]) index() {
	n := b.Len()
	width := max(bits.Len(uint(n))-3, 0)
	b.shift = uint8(64 - width)
	b.dir = grow(b.dir, 1<<width+1)[:1<<width+1]
	i := 0
	for p := range b.dir {
		for i < n && b.hks[i]>>b.shift < uint64(p) {
			i++
		}
		b.dir[p] = uint32(i)
	}
}

// grow returns s emptied, with room for n elements. A replacement is at
// least a quarter larger than what it replaces, so a column set recycled for
// a slowly growing trace is reallocated a logarithmic number of times.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, max(n, cap(s)+cap(s)/4))
	}
	return s[:0]
}

// blank empties b's columns, keeping or growing their capacity to n rows.
func (b *Batch[K, V]) blank(n int) *Batch[K, V] {
	b.hks, b.keys, b.vals = grow(b.hks, n), grow(b.keys, n), grow(b.vals, n)
	b.hvs, b.times, b.diffs = grow(b.hvs, n), grow(b.times, n), grow(b.diffs, n)
	return b
}

func (b *Batch[K, V]) push(hk uint64, k K, v V, hv uint64, t timestamp.Time, d int64) {
	b.hks = append(b.hks, hk)
	b.keys = append(b.keys, k)
	b.vals = append(b.vals, v)
	b.hvs = append(b.hvs, hv)
	b.times = append(b.times, t)
	b.diffs = append(b.diffs, d)
}

// appendRows copies rows [lo, hi) of src column by column, clamping their
// times to outer. The caller guarantees clamping leaves the rows in order.
func (b *Batch[K, V]) appendRows(src *Batch[K, V], lo, hi int, outer uint32) {
	at := len(b.times)
	b.hks = append(b.hks, src.hks[lo:hi]...)
	b.keys = append(b.keys, src.keys[lo:hi]...)
	b.vals = append(b.vals, src.vals[lo:hi]...)
	b.hvs = append(b.hvs, src.hvs[lo:hi]...)
	b.times = append(b.times, src.times[lo:hi]...)
	b.diffs = append(b.diffs, src.diffs[lo:hi]...)
	for i := at; i < len(b.times); i++ {
		b.times[i].Outer = max(b.times[i].Outer, outer)
	}
}

// add appends one row, or folds it into an equal (key, value, time) row
// among those just appended: rows arrive in batch order, so equal rows share
// (hk, time, hv) and sit adjacent, up to hash collisions, which the equality
// check steps over. A row whose diffs sum to zero is removed.
func (b *Batch[K, V]) add(hk uint64, k K, v V, hv uint64, t timestamp.Time, d int64) {
	for q := b.Len() - 1; q >= 0 && b.hvs[q] == hv && b.times[q] == t && b.hks[q] == hk; q-- {
		if b.keys[q] == k && b.vals[q] == v {
			if b.diffs[q] += d; b.diffs[q] == 0 {
				b.hks, b.keys, b.vals = slices.Delete(b.hks, q, q+1), slices.Delete(b.keys, q, q+1), slices.Delete(b.vals, q, q+1)
				b.hvs, b.times, b.diffs = slices.Delete(b.hvs, q, q+1), slices.Delete(b.times, q, q+1), slices.Delete(b.diffs, q, q+1)
			}
			return
		}
	}
	b.push(hk, k, v, hv, t, d)
}

// rowKey is a row's place within its key-run, its time already clamped.
type rowKey struct {
	t  timestamp.Time
	hv uint64
}

func (a rowKey) less(b rowKey) bool {
	if c := compareTimes(a.t, b.t); c != 0 {
		return c < 0
	}
	return a.hv < b.hv
}

// key returns row j's place within its key-run once clamped to outer.
func (b *Batch[K, V]) key(j int, outer uint32) rowKey {
	return rowKey{timestamp.Time{Outer: max(b.times[j].Outer, outer), Inner: b.times[j].Inner}, b.hvs[j]}
}

// segment is rows [lo, hi) of source src: a stretch of one key-run that
// stays in batch order when its times are clamped. head is row lo's place.
type segment struct {
	src, lo, hi int
	head        rowKey
}

// compareTimes orders times lexicographically, the order batches use.
func compareTimes(a, b timestamp.Time) int {
	if c := cmp.Compare(a.Outer, b.Outer); c != 0 {
		return c
	}
	return cmp.Compare(a.Inner, b.Inner)
}

// tie orders rows i and j of one key hash by (time, hv), the order batches
// use within a key-run.
func (b *Batch[K, V]) tie(i, j uint32) int {
	if c := compareTimes(b.times[i], b.times[j]); c != 0 {
		return c
	}
	return cmp.Compare(b.hvs[i], b.hvs[j])
}

// sortBucket orders one bucket of staged rows by (hash, time, value hash),
// the order batches use: by insertion up to 32 rows, which is nearly every
// bucket, and by slices.SortFunc past that, where a hub key's rows land.
func (b *Batch[K, V]) sortBucket(run []uint32) {
	if len(run) > 32 {
		slices.SortFunc(run, func(i, j uint32) int {
			if c := cmp.Compare(b.hks[i], b.hks[j]); c != 0 {
				return c
			}
			return b.tie(i, j)
		})
		return
	}
	for i := 1; i < len(run); i++ {
		for j := i; j > 0; j-- {
			x, y := run[j], run[j-1]
			if hx, hy := b.hks[x], b.hks[y]; hx > hy || hx == hy && b.tie(x, y) >= 0 {
				break
			}
			run[j], run[j-1] = y, x
		}
	}
}

// Trace is an arranged multiset history: per-key (value, time, diff)
// tuples held as a stack of immutable sorted batches plus a bounded
// mutable stage of recent appends. A trace belongs to one worker; Append,
// Key, Advance, Reset and Snapshot must not race with each other.
type Trace[K comparable, V comparable] struct {
	seed     maphash.Seed
	batches  []*Batch[K, V] // oldest first; geometric sizes
	stage    Batch[K, V]    // recent appends, at most stageThreshold
	idx      *stageIndex    // the stage's rows by key hash, made by the first append
	frontier uint32         // 1 + the outer coordinate merges clamp to; 0 = none

	// free holds the column sets of merged-away and reset batches, never a
	// shared one, oldest first; seals and merges write into them before
	// allocating, so the canonical batch and its predecessor swap roles at
	// every Advance and a reset trace reuses what its last run grew. Nothing
	// has used the first idle of them since the last turn.
	free  []*Batch[K, V]
	idle  int
	order []uint32  // scratch for sealStage: one bucket's rows
	cur   []int     // scratch for merge: per-source cursor
	segs  []segment // scratch for merge: the pieces of one key hash's runs
}

// NewTrace creates an empty trace.
func NewTrace[K comparable, V comparable]() *Trace[K, V] {
	return &Trace[K, V]{seed: maphash.MakeSeed()}
}

// NewPeer creates an empty trace that hashes keys exactly as peer does, so
// one Hash serves KeyHashed and AppendHashed on both (a reduce's input and
// output, a join's two sides).
func NewPeer[K comparable, V comparable, W comparable](peer *Trace[K, W]) *Trace[K, V] {
	return &Trace[K, V]{seed: peer.seed}
}

// Hash returns k's hash in this trace and its peers.
func (tr *Trace[K, V]) Hash(k K) uint64 { return maphash.Comparable(tr.seed, k) }

// Append records one update. When the stage fills, it is sealed into an
// immutable batch and the batch stack re-established geometrically (each
// batch at least twice the combined size of everything newer), which keeps
// the stack logarithmic and amortizes merge work.
func (tr *Trace[K, V]) Append(k K, v V, t timestamp.Time, d int64) {
	tr.AppendHashed(tr.Hash(k), k, v, t, d)
}

// AppendHashed is Append for a caller that already holds hk = Hash(k).
func (tr *Trace[K, V]) AppendHashed(hk uint64, k K, v V, t timestamp.Time, d int64) {
	if d == 0 {
		return
	}
	if tr.idx == nil {
		tr.idx = new(stageIndex)
	}
	tr.idx.link(hk, tr.stage.Len())
	tr.stage.push(hk, k, v, maphash.Comparable(tr.seed, v), t, d)
	if tr.stage.Len() >= stageThreshold {
		tr.seal()
	}
}

// Advance moves the compaction frontier: times with Outer < outer clamp to
// outer. The first call per frontier move compacts the trace to canonical
// form — stage sealed, all batches merged, clamped, consolidated into one —
// so the tuple count a subsequent Key visit reports depends only on the
// accumulated multiset, not on seal/merge history. That layout-independence
// is what keeps the engine's work counters deterministic across execution
// plans (a local run and a sharded run of the same views must report
// identical work). The pass is one streaming merge into a column set off the
// free list, proportional to the trace. It allocates no columns only when fit
// finds a free set with room for the whole trace; when none has room — the
// trace outgrew its sets, or turn released them — fresh allocates one
// (Batch.blank), so a trace that keeps growing allocates at every frontier
// move. Repeat calls at the same frontier are O(1).
func (tr *Trace[K, V]) Advance(outer uint32) {
	if outer+1 <= tr.frontier {
		return
	}
	tr.frontier = outer + 1
	tr.turn()
	tr.sealStage()
	if len(tr.batches) > 0 {
		tr.mergeFrom(0)
	}
}

// clampOuter is the outer coordinate times clamp to; before any Advance it
// is 0, which clamps nothing.
func (tr *Trace[K, V]) clampOuter() uint32 { return max(tr.frontier, 1) - 1 }

// sealStage clamps the stage and reads it out bucket by bucket of its index,
// each bucket sorted, consolidating into a new batch on top of the stack
// (none when everything cancels), and empties the stage and its index.
func (tr *Trace[K, V]) sealStage() {
	st, x, outer := &tr.stage, tr.idx, tr.clampOuter()
	if st.Len() == 0 {
		return
	}
	for i := range st.times {
		st.times[i].Outer = max(st.times[i].Outer, outer)
	}
	b := tr.fresh(st.Len(), false)
	for _, r := range x.head[:] {
		run := tr.order[:0]
		for ; r != 0; r = x.next[r-1] {
			run = append(run, uint32(r-1))
		}
		st.sortBucket(run)
		for _, i := range run {
			b.add(st.hks[i], st.keys[i], st.vals[i], st.hvs[i], st.times[i], st.diffs[i])
		}
		tr.order = run
	}
	clear(x.head[:])
	st.blank(0)
	if b.Len() > 0 {
		b.index()
		tr.batches = append(tr.batches, b)
	} else {
		tr.recycle(b)
	}
}

// fresh returns an empty batch with room for n rows (a stage's worth at
// least) in the free column set fit picks, else in a new one.
func (tr *Trace[K, V]) fresh(n int, whole bool) *Batch[K, V] {
	n = max(n, stageThreshold)
	pick := tr.fit(n, whole)
	if pick < 0 {
		return new(Batch[K, V]).blank(n)
	}
	if pick < tr.idle {
		tr.idle--
	}
	b := tr.free[pick]
	tr.free = slices.Delete(tr.free, pick, pick+1)
	return b.blank(n)
}

// fit returns the index of the free column set to write n rows into, or -1.
// A seal or a partial merge takes the smallest set with room for n rows and
// no more than 2n: a reset trace's next run finds what its last one grew, and
// a stack's batches sit in sets their own size. A whole-stack merge takes the
// smallest set with room, however large (a trace that restarts small starts
// in the set it ended in), else the largest there is, for grow to replace:
// the one batch outgrows its two sets a logarithmic number of times and
// leaves neither behind.
func (tr *Trace[K, V]) fit(n int, whole bool) int {
	pick, pc := -1, 0
	for i, b := range tr.free {
		switch c := cap(b.hks); {
		case c >= n && (whole || c <= 2*n) && (pc < n || c < pc):
			pick, pc = i, c // a closer fit
		case c < n && whole && pc < n && c > pc:
			pick, pc = i, c // no fit so far: the largest
		}
	}
	return pick
}

// recycle offers b's column set to the free list.
func (tr *Trace[K, V]) recycle(b *Batch[K, V]) {
	if !b.shared {
		tr.free = append(tr.free, b)
	}
}

// turn marks a frontier move or a reset and releases the free column sets
// nothing has used since the last one: the list only holds what the trace
// had in use, merge outputs included, since the turn before last.
func (tr *Trace[K, V]) turn() {
	tr.free = slices.Delete(tr.free, 0, tr.idle)
	tr.idle = len(tr.free)
}

// seal flushes the stage into a batch and restores the geometric invariant,
// merging the maximal tail run that violates it in one pass.
func (tr *Trace[K, V]) seal() {
	tr.sealStage()
	for n := len(tr.batches); n >= 2; n = len(tr.batches) {
		total, j := tr.batches[n-1].Len(), n-1
		for j > 0 && tr.batches[j-1].Len() < 2*total {
			total += tr.batches[j-1].Len()
			j--
		}
		if j == n-1 {
			return
		}
		tr.mergeFrom(j)
	}
}

// mergeFrom replaces batches[j:] with their merge. The stack is rebuilt in
// a fresh slice: truncating and re-appending in place would scribble over a
// backing array a Snapshot may share. The merge writes into a recycled
// column set and leaves its unshared sources behind for the next ones.
func (tr *Trace[K, V]) mergeFrom(j int) {
	srcs, total := tr.batches[j:], 0
	for _, b := range srcs {
		total += b.Len()
	}
	out := tr.fresh(total, j == 0)
	tr.merge(srcs, out)
	nb := append(make([]*Batch[K, V], 0, j+1), tr.batches[:j]...)
	if out.Len() > 0 {
		out.index()
		nb = append(nb, out)
	} else {
		tr.recycle(out)
	}
	for _, b := range srcs {
		tr.recycle(b)
	}
	tr.batches = nb
}

// merge writes the clamped, consolidated merge of the sorted batches srcs
// into out, without touching srcs. Clamping Outer < outer to outer can only
// reorder, or make equal, tuples inside one key-run, and only when the run
// holds two distinct Outer values at or below outer. So the merge walks the
// sources key hash by key hash: a stretch of hashes that only one source
// holds, free of such runs, moves by column copy; a hash two sources share,
// or a run clamping disturbs, is cut into pieces clamping leaves in order,
// and the pieces are merged row by row, consolidating as they emit.
func (tr *Trace[K, V]) merge(srcs []*Batch[K, V], out *Batch[K, V]) {
	outer := tr.clampOuter()
	cur := append(tr.cur[:0], make([]int, len(srcs))...)
	for {
		// a holds the smallest head hash h; other is the smallest head hash
		// among the remaining sources, when there is one.
		a, alone := -1, true
		var h, other uint64
		for s, b := range srcs {
			if cur[s] == b.Len() {
				continue
			}
			switch x := b.hks[cur[s]]; {
			case a < 0:
				a, h = s, x
			case x < h:
				a, h, other, alone = s, x, h, false
			case alone || x < other:
				other, alone = x, false
			}
		}
		if a < 0 {
			break
		}
		if alone || h < other {
			b, i := srcs[a], cur[a]
			j, disturbed := i+1, false
			for ; j < b.Len() && (alone || b.hks[j] < other); j++ {
				if o := b.times[j].Outer; o != b.times[j-1].Outer && o <= outer && b.hks[j] == b.hks[j-1] {
					for h, disturbed = b.hks[j], true; j > i && b.hks[j-1] == h; j-- {
					}
					break
				}
			}
			out.appendRows(b, i, j, outer)
			if cur[a] = j; !disturbed {
				continue
			}
		}
		// Cut h's runs where clamping breaks their order, then merge the
		// pieces on their clamped times.
		segs := tr.segs[:0]
		for s, b := range srcs {
			i := cur[s]
			if i == b.Len() || b.hks[i] != h {
				continue
			}
			segs = append(segs, segment{src: s, lo: i, head: b.key(i, outer)})
			for i++; i < b.Len() && b.hks[i] == h; i++ {
				if o := b.times[i].Outer; o != b.times[i-1].Outer && o <= outer {
					segs[len(segs)-1].hi = i
					segs = append(segs, segment{src: s, lo: i, head: b.key(i, outer)})
				}
			}
			segs[len(segs)-1].hi, cur[s] = i, i
		}
		for {
			// best holds the smallest head row; bound is the smallest head
			// among the other pieces, when there is one.
			best, bounded := -1, false
			var head, bound rowKey
			for x := range segs {
				g := &segs[x]
				switch {
				case g.lo == g.hi:
				case best < 0:
					best, head = x, g.head
				case g.head.less(head):
					best, head, bound, bounded = x, g.head, head, true
				case !bounded || g.head.less(bound):
					bound, bounded = g.head, true
				}
			}
			if best < 0 {
				break
			}
			// The head may meet its equal among the rows already out; the
			// rows behind it that stay below bound meet nothing, and move
			// by column copy (most of a hub key's run).
			g := &segs[best]
			b, j := srcs[g.src], g.lo+1
			out.add(h, b.keys[g.lo], b.vals[g.lo], head.hv, head.t, b.diffs[g.lo])
			for ; j < g.hi; j++ {
				if g.head = b.key(j, outer); bounded && !g.head.less(bound) {
					break
				}
			}
			if j > g.lo+1 {
				out.appendRows(b, g.lo+1, j, outer)
			}
			g.lo = j
		}
		tr.segs = segs
	}
	tr.cur = cur
}

// Key visits every (value, time, diff) tuple recorded for k — batch entries
// through the directory, stage entries through their bucket of the stage
// index, in arrival order — and returns the number of tuples visited. Batch
// times may already be clamped to the compaction frontier; stage times are
// raw. Both are equivalent to callers, which only Join or Leq-filter against
// times at or above the frontier.
func (tr *Trace[K, V]) Key(k K, yield func(v V, t timestamp.Time, d int64)) int {
	return tr.KeyHashed(tr.Hash(k), k, yield)
}

// KeyHashed is Key for a caller that already holds hk = Hash(k).
func (tr *Trace[K, V]) KeyHashed(hk uint64, k K, yield func(v V, t timestamp.Time, d int64)) int {
	n := 0
	for _, b := range tr.batches {
		for i := b.seek(hk, 0); i < b.Len() && b.hks[i] == hk; i++ {
			if b.keys[i] == k {
				yield(b.vals[i], b.times[i], b.diffs[i])
				n++
			}
		}
	}
	if st := &tr.stage; st.Len() > 0 {
		for r := tr.idx.head[hk>>stageShift]; r != 0; r = tr.idx.next[r-1] {
			if i := r - 1; st.hks[i] == hk && st.keys[i] == k {
				yield(st.vals[i], st.times[i], st.diffs[i])
				n++
			}
		}
	}
	return n
}

// Rows is a stretch of one key's rows as columns.
type Rows[V comparable] struct {
	Vals  []V
	Hvs   []uint64 // the values' hashes
	Times []timestamp.Time
	Diffs []int64
}

// Cursor reads a trace's keys in ascending hash order: each sealed batch
// through a row cursor that only moves forward, the stage through its index,
// as Key does. Its columns are recycled from one Open to the next. The trace
// must not change while the cursor is in use.
type Cursor[K comparable, V comparable] struct {
	tr   *Trace[K, V]
	pos  []int // per sealed batch: no row before it hashes at or above the last key sought
	runs []Rows[V]
	odd  Rows[V] // the last key's staged rows
}

// Open positions c before tr's first key.
func (c *Cursor[K, V]) Open(tr *Trace[K, V]) {
	c.tr = tr
	c.pos = append(c.pos[:0], make([]int, len(tr.batches))...)
}

// Seek returns k's rows and how many there are, valid until the next Seek: a
// batch's run in place (in pieces, should a colliding key interleave), the
// staged rows gathered. hk = Hash(k) must be at least the hash of every key
// sought since Open. Batch times may be clamped, stage times raw, as for Key.
func (c *Cursor[K, V]) Seek(hk uint64, k K) ([]Rows[V], int) {
	n := 0
	c.runs = c.runs[:0]
	for i, b := range c.tr.batches {
		if p := c.pos[i]; p < b.Len() && b.hks[p] < hk {
			c.pos[i] = b.seek(hk, p)
		}
		for r := c.pos[i]; r < b.Len() && b.hks[r] == hk; r++ {
			e := r
			for e < b.Len() && b.hks[e] == hk && b.keys[e] == k {
				e++
			}
			if e > r {
				c.runs, n, r = append(c.runs, Rows[V]{b.vals[r:e], b.hvs[r:e], b.times[r:e], b.diffs[r:e]}), n+e-r, e
			}
		}
	}
	st, x, o := &c.tr.stage, c.tr.idx, &c.odd
	o.Vals, o.Hvs, o.Times, o.Diffs = o.Vals[:0], o.Hvs[:0], o.Times[:0], o.Diffs[:0]
	if st.Len() > 0 {
		for r := x.head[hk>>stageShift]; r != 0; r = x.next[r-1] {
			if i := r - 1; st.hks[i] == hk && st.keys[i] == k {
				o.Vals, o.Hvs = append(o.Vals, st.vals[i]), append(o.Hvs, st.hvs[i])
				o.Times, o.Diffs = append(o.Times, st.times[i]), append(o.Diffs, st.diffs[i])
			}
		}
	}
	if len(o.Vals) > 0 {
		c.runs = append(c.runs, *o)
	}
	return c.runs, n + len(o.Vals)
}

// Len returns the total number of tuples held (after any consolidation).
func (tr *Trace[K, V]) Len() int {
	n := tr.stage.Len()
	for _, b := range tr.batches {
		n += b.Len()
	}
	return n
}

// Reset drops all state by releasing the batch stack by reference — O(1)
// in accumulated history, the whole point of batching: no map walk, no
// per-key work, a handful of batch pointers move to the free list (or, when
// a Snapshot shares them, to the GC) for the next run's seals and merges.
// The stage (bounded by stageThreshold) is truncated in place and its index
// cleared.
func (tr *Trace[K, V]) Reset() {
	tr.turn()
	for _, b := range tr.batches {
		tr.recycle(b)
	}
	tr.batches = nil
	if tr.stage.Len() > 0 {
		clear(tr.idx.head[:])
	}
	tr.stage.blank(0)
	tr.frontier = 0
}

// Snapshot returns an independent copy-on-write view of the trace: the
// immutable batches are shared by reference (O(1) regardless of history
// size) and only the bounded stage is copied, into a stage with an index of
// its own. Appends, merges, and resets on either trace never disturb the
// other — sealing builds new batches rather than mutating shared ones, and a
// batch marked shared here is never recycled as a merge target by either
// trace.
func (tr *Trace[K, V]) Snapshot() *Trace[K, V] {
	for _, b := range tr.batches {
		if !b.shared { // no write when set: another snapshot's owner may be reading it
			b.shared = true
		}
	}
	cp := &Trace[K, V]{
		seed:     tr.seed,
		batches:  tr.batches[:len(tr.batches):len(tr.batches)],
		frontier: tr.frontier,
	}
	cp.stage.blank(tr.stage.Len()).appendRows(&tr.stage, 0, tr.stage.Len(), 0)
	if cp.stage.Len() > 0 {
		cp.idx = new(stageIndex)
		for i, hk := range cp.stage.hks {
			cp.idx.link(hk, i)
		}
	}
	return cp
}

// Batches returns the current batch count (diagnostics and tests).
func (tr *Trace[K, V]) Batches() int { return len(tr.batches) }
