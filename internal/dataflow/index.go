package dataflow

import (
	"math/bits"

	"graphsurge/internal/timestamp"
)

// keyTable maps a shard's keys to dense slots by open addressing on the top
// bits of the key hash. Its owner keeps per-key state in columns of its own,
// indexed by slot, with no per-key heap object.
type keyTable[K comparable] struct {
	tab   []uint32 // 1 + slot; 0 is empty
	shift uint8
	hks   []uint64 // per slot
	keys  []K
}

// slot returns k's slot. A key seen for the first time gets the next one,
// len(hks) - 1 after the call; the owner grows its columns to match.
func (kt *keyTable[K]) slot(hk uint64, k K) uint32 {
	if 4*len(kt.hks) >= 3*len(kt.tab) {
		kt.tab = make([]uint32, max(2*len(kt.tab), 64))
		kt.shift = uint8(65 - bits.Len(uint(len(kt.tab))))
		for j, h := range kt.hks {
			*kt.probe(h, func(uint32) bool { return false }) = uint32(j + 1)
		}
	}
	s := kt.probe(hk, func(j uint32) bool { return kt.hks[j] == hk && kt.keys[j] == k })
	if *s == 0 {
		*s = uint32(len(kt.hks) + 1)
		kt.hks, kt.keys = append(kt.hks, hk), append(kt.keys, k)
	}
	return *s - 1
}

// find returns k's slot, if k has one.
func (kt *keyTable[K]) find(hk uint64, k K) (uint32, bool) {
	if len(kt.tab) == 0 {
		return 0, false
	}
	s := *kt.probe(hk, func(j uint32) bool { return kt.hks[j] == hk && kt.keys[j] == k })
	return s - 1, s != 0
}

// probe returns the table entry holding the slot is matches, else an empty one.
func (kt *keyTable[K]) probe(hk uint64, is func(slot uint32) bool) *uint32 {
	for p := hk >> kt.shift; ; p++ {
		if s := &kt.tab[p&uint64(len(kt.tab)-1)]; *s == 0 || is(*s-1) {
			return s
		}
	}
}

// reset forgets every key, keeping the columns' capacity.
func (kt *keyTable[K]) reset() {
	clear(kt.tab)
	kt.hks, kt.keys = kt.hks[:0], kt.keys[:0]
}

// spanSlab is a shard's per-key stretches of one flat array, a span per key
// slot, with no per-key heap object. It grows by one rule. Room is made
// before entries are added, by push for one entry and by ask and reserve for
// a batch: each span that lacks room moves once to the array's end, with
// room for all it was asked and at least twice its entries, unless the moves
// would overrun the array's capacity or make it longer than 1.4 times its
// live entries plus slabSlack. Then the array is instead rebuilt compactly
// into the spare, each span with its asked room or a quarter's headroom,
// whichever is more, and the two swap. A cut that leaves the array past that
// bound rebuilds it too. So no move copies dead room into a larger array, no
// move or cut leaves the array longer than that bound, and the moves or cuts
// since the last rebuild pay for the next one's copy. Moves and rebuilds keep
// every span's order. A reset keeps both arrays, so a reset shard's rerun
// does not grow them.
type spanSlab[E any] struct {
	spans []span // per slot
	buf   []E
	spare []E      // what the next rebuild writes into: the array before the last rebuild
	live  int      // Σ n
	asked []uint32 // the slots asked room for since the last reserve
}

// span is one key's stretch of a spanSlab: buf[off:off+n], with room for c,
// and want more asked for it since the last reserve.
type span struct{ off, n, c, want uint32 }

// slabSlack is the dead room any slab may hold, so a small one is not
// rebuilt at every move.
const slabSlack = 64

// add appends an empty span, for a new slot.
func (sl *spanSlab[E]) add() { sl.spans = append(sl.spans, span{}) }

// at returns slot s's entries, valid until the next push, reserve or cut.
func (sl *spanSlab[E]) at(s uint32) []E {
	sp := sl.spans[s]
	return sl.buf[sp.off : sp.off+sp.n]
}

// push appends e to slot s's span.
func (sl *spanSlab[E]) push(s uint32, e E) {
	if sp := &sl.spans[s]; sp.n == sp.c {
		sl.ask(s)
		sl.reserve()
	}
	sp := &sl.spans[s]
	sl.buf[sp.off+sp.n] = e
	sp.n++
	sl.live++
}

// ask asks room for one more entry in slot s at the next reserve.
func (sl *spanSlab[E]) ask(s uint32) {
	sp := &sl.spans[s]
	if sp.want == 0 {
		sl.asked = append(sl.asked, s)
	}
	sp.want++
}

// reserve makes the room asked for since the last reserve, by the slab's
// rule.
func (sl *spanSlab[E]) reserve() {
	moved := 0
	for _, s := range sl.asked {
		if sp := &sl.spans[s]; sp.n+sp.want > sp.c {
			moved += int(grown(sp))
		}
	}
	switch l := len(sl.buf) + moved; {
	case moved == 0:
	case l > cap(sl.buf) || l > sl.bound():
		sl.rebuild()
	default:
		for _, s := range sl.asked {
			if sp := &sl.spans[s]; sp.n+sp.want > sp.c {
				off, c := len(sl.buf), grown(sp)
				sl.buf = sl.buf[:off+int(c)]
				copy(sl.buf[off:], sl.buf[sp.off:sp.off+sp.n])
				sp.off, sp.c = uint32(off), c
			}
		}
	}
	for _, s := range sl.asked {
		sl.spans[s].want = 0
	}
	sl.asked = sl.asked[:0]
}

// grown is the room a span that lacks it moves with.
func grown(sp *span) uint32 { return max(sp.n+sp.want, 2*sp.n) }

// roomy is the room a rebuild lays a span out with.
func roomy(sp *span) uint32 { return sp.n + max(sp.want, sp.n/4) }

// bound is the longest the array may be made by a move or left by a cut.
func (sl *spanSlab[E]) bound() int { return sl.live + 2*sl.live/5 + slabSlack }

// cut keeps slot s's first n entries.
func (sl *spanSlab[E]) cut(s uint32, n int) {
	sp := &sl.spans[s]
	sl.live -= int(sp.n) - n
	sp.n = uint32(n)
	if len(sl.buf) > sl.bound() {
		sl.rebuild()
	}
}

// rebuild lays every span out afresh in the spare and swaps the two arrays.
// A spare too small is replaced by one whose capacity is the power of two at
// or above twice the layout: capacities in powers of two let the two arrays
// settle in one size class, so a reset shard's rerun, whose rebuilds fall at
// other points than the last run's, still finds its spare large enough.
func (sl *spanSlab[E]) rebuild() {
	size := 0
	for i := range sl.spans {
		size += int(roomy(&sl.spans[i]))
	}
	to := sl.spare[:0]
	if cap(to) < size {
		to = make([]E, 0, 1<<bits.Len(uint(2*size-1)))
	}
	for i := range sl.spans {
		sp := &sl.spans[i]
		off := len(to)
		to = append(to, sl.buf[sp.off:sp.off+sp.n]...)
		sp.off, sp.c = uint32(off), roomy(sp)
		to = to[:off+int(sp.c)]
	}
	sl.buf, sl.spare = to, sl.buf[:0]
}

// reset forgets every span, keeping both arrays.
func (sl *spanSlab[E]) reset() {
	sl.spans, sl.buf, sl.live = sl.spans[:0], sl.buf[:0], 0
}

// totalIndex is one worker's accumulated state of a collection whose times
// are totally ordered, (version, 0): per key, its (value, count) pairs whose
// counts do not cancel, and no time column. Such a collection is its
// accumulated multiset, so an update is O(the key's pairs) and nothing is
// ever merged. A key's pairs are its span of one spanSlab; a reset truncates
// every column in place, so a reset index reruns without allocating.
//
// Updates come in batches, each opened by begin, in which every (key, value)
// appears at most once, as after consolidation. A batch whose keys are
// slotted first may reserve their room in the slab before it adds.
type totalIndex[K comparable, V comparable] struct {
	keyTable[K]
	runs  []pairRun // per slot
	slab  spanSlab[VD[V]]
	epoch uint32 // the open batch
}

// pairRun is one key's batch state: the first old of its pairs were there
// before the batch it was last updated in (epoch); the rest came with it.
type pairRun struct{ old, epoch uint32 }

// begin opens a batch.
func (ix *totalIndex[K, V]) begin() { ix.epoch++ }

// slot returns k's slot, where hk is k's hash, adding an empty one the
// first time k is seen.
func (ix *totalIndex[K, V]) slot(hk uint64, k K) uint32 {
	s := ix.keyTable.slot(hk, k)
	if int(s) == len(ix.runs) {
		ix.runs = append(ix.runs, pairRun{})
		ix.slab.add()
	}
	return s
}

// add folds d into the count of (k, v), where hk is k's hash, and returns
// the count before.
func (ix *totalIndex[K, V]) add(hk uint64, k K, v V, d int64) int64 {
	return ix.addAt(ix.slot(hk, k), v, d)
}

// addAt is add for the key in slot s. A value is looked for only among the
// pairs that were there before the batch: a batch adds each value once, so a
// whole view's values arriving at a key in one batch cost linear, not
// quadratic, time.
func (ix *totalIndex[K, V]) addAt(s uint32, v V, d int64) int64 {
	r := &ix.runs[s]
	ps := ix.slab.at(s)
	if r.epoch != ix.epoch {
		r.epoch, r.old = ix.epoch, uint32(len(ps))
	}
	for i := range ps[:r.old] {
		if ps[i].V != v {
			continue
		}
		was := ps[i].D
		if ps[i].D += d; ps[i].D == 0 {
			// The last old pair fills the hole, and the batch's last pair
			// its place, so the batch's pairs stay last.
			r.old--
			ps[i], ps[r.old] = ps[r.old], ps[len(ps)-1]
			ix.slab.cut(s, len(ps)-1)
		}
		return was
	}
	ix.slab.push(s, VD[V]{v, d})
	return 0
}

// pairs returns k's pairs, valid until the next add. hk is k's hash.
func (ix *totalIndex[K, V]) pairs(hk uint64, k K) []VD[V] {
	s, ok := ix.find(hk, k)
	if !ok {
		return nil
	}
	return ix.slab.at(s)
}

// key visits k's pairs, each as a count at the beginning of time, and
// returns how many it visited: a join pairs a delta at t with them at t
// itself. hk is k's hash.
func (ix *totalIndex[K, V]) key(hk uint64, k K, yield func(v V, t timestamp.Time, d int64)) int {
	ps := ix.pairs(hk, k)
	for _, p := range ps {
		yield(p.V, timestamp.Time{}, p.D)
	}
	return len(ps)
}

// reset forgets every key, keeping the columns' capacity.
func (ix *totalIndex[K, V]) reset() {
	ix.keyTable.reset()
	ix.runs = ix.runs[:0]
	ix.slab.reset()
}
