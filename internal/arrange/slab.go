package arrange

import (
	"cmp"
	"math/bits"

	"graphsurge/internal/timestamp"
)

// KeyTable maps a shard's keys to dense slots by open addressing on the top
// bits of the key hash. Its owner keeps per-key state in columns of its own,
// indexed by slot, with no per-key heap object.
type KeyTable[K comparable] struct {
	tab   []uint32 // 1 + slot; 0 is empty
	shift uint8
	hks   []uint64 // per slot
	keys  []K
}

// Slot returns k's slot, where hk is k's hash. A key seen for the first time
// gets the next one, the number of keys less one after the call; the owner
// grows its columns to match.
func (kt *KeyTable[K]) Slot(hk uint64, k K) uint32 {
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

// Find returns k's slot, if k has one.
func (kt *KeyTable[K]) Find(hk uint64, k K) (uint32, bool) {
	if len(kt.tab) == 0 {
		return 0, false
	}
	s := *kt.probe(hk, func(j uint32) bool { return kt.hks[j] == hk && kt.keys[j] == k })
	return s - 1, s != 0
}

// probe returns the table entry holding the slot is matches, else an empty one.
func (kt *KeyTable[K]) probe(hk uint64, is func(slot uint32) bool) *uint32 {
	for p := hk >> kt.shift; ; p++ {
		if s := &kt.tab[p&uint64(len(kt.tab)-1)]; *s == 0 || is(*s-1) {
			return s
		}
	}
}

// KeyAt returns slot s's key.
func (kt *KeyTable[K]) KeyAt(s uint32) K { return kt.keys[s] }

// HashAt returns slot s's key hash.
func (kt *KeyTable[K]) HashAt(s uint32) uint64 { return kt.hks[s] }

// Reset forgets every key, keeping the columns' capacity.
func (kt *KeyTable[K]) Reset() {
	clear(kt.tab)
	kt.hks, kt.keys = kt.hks[:0], kt.keys[:0]
}

// SpanSlab is a shard's per-key stretches of one flat array, a span per key
// slot, with no per-key heap object. It grows by one rule. Room is made
// before entries are added, by Push for one entry and by Ask and Reserve for
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
type SpanSlab[E any] struct {
	spans []span // per slot
	buf   []E
	spare []E      // what the next rebuild writes into: the array before the last rebuild
	live  int      // Σ n
	asked []uint32 // the slots asked room for since the last reserve
}

// span is one key's stretch of a SpanSlab: buf[off:off+n], with room for c,
// and want more asked for it since the last reserve.
type span struct{ off, n, c, want uint32 }

// slabSlack is the dead room any slab may hold, so a small one is not
// rebuilt at every move.
const slabSlack = 64

// Add appends an empty span, for a new slot.
func (sl *SpanSlab[E]) Add() { sl.spans = append(sl.spans, span{}) }

// Spans returns the number of spans.
func (sl *SpanSlab[E]) Spans() int { return len(sl.spans) }

// At returns slot s's entries, valid until the next Push, Reserve or Cut.
func (sl *SpanSlab[E]) At(s uint32) []E {
	sp := sl.spans[s]
	return sl.buf[sp.off : sp.off+sp.n]
}

// Push appends e to slot s's span.
func (sl *SpanSlab[E]) Push(s uint32, e E) {
	if sp := &sl.spans[s]; sp.n == sp.c {
		sl.Ask(s)
		sl.Reserve()
	}
	sp := &sl.spans[s]
	sl.buf[sp.off+sp.n] = e
	sp.n++
	sl.live++
}

// Ask asks room for one more entry in slot s at the next Reserve.
func (sl *SpanSlab[E]) Ask(s uint32) {
	sp := &sl.spans[s]
	if sp.want == 0 {
		sl.asked = append(sl.asked, s)
	}
	sp.want++
}

// Reserve makes the room asked for since the last Reserve, by the slab's
// rule.
func (sl *SpanSlab[E]) Reserve() {
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
func (sl *SpanSlab[E]) bound() int { return sl.live + 2*sl.live/5 + slabSlack }

// Cut keeps slot s's first n entries.
func (sl *SpanSlab[E]) Cut(s uint32, n int) {
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
func (sl *SpanSlab[E]) rebuild() {
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

// Live returns the number of entries the spans hold.
func (sl *SpanSlab[E]) Live() int { return sl.live }

// Arrays returns the array the spans live in and the spare, for tests that
// hold the growth rule to its bounds.
func (sl *SpanSlab[E]) Arrays() (buf, spare []E) { return sl.buf, sl.spare }

// Reset forgets every span, keeping both arrays.
func (sl *SpanSlab[E]) Reset() {
	sl.spans, sl.buf, sl.live = sl.spans[:0], sl.buf[:0], 0
}

// ClampTime is the compaction clamp: a time below the frontier's outer
// coordinate moves up to it. For any t at or above the frontier, s ≤ t
// exactly when ClampTime(s, outer) ≤ t, so what is kept per key may be
// clamped lazily, the next time the key is touched.
func ClampTime(t timestamp.Time, outer uint32) timestamp.Time {
	t.Outer = max(t.Outer, outer)
	return t
}

// LexCmp orders times lexicographically, Outer first.
func LexCmp(a, b timestamp.Time) int {
	return cmp.Or(cmp.Compare(a.Outer, b.Outer), cmp.Compare(a.Inner, b.Inner))
}
