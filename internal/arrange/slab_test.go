package arrange

import (
	"math/rand"
	"slices"
	"testing"

	"graphsurge/internal/timestamp"
)

// spread is a test key's hash: the key table probes on the top bits.
func spread(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// FuzzSpanSlabMatchesMap holds the key table and the span slab to per-key
// slices. Rounds of pushes, half of them reserved as a batch first, with hub
// keys that take hundreds of entries at once, and of cancels, each an entry
// replaced by the span's last and the span cut by one, as a total index
// drops a pair; sweeps that cut most spans to nothing; times clamped to a
// moving frontier, sorted and de-duplicated in place, as a schedule keeps
// them; and resets now and then. After every round each key's span must be
// the reference's, in order, the live count the reference's, and the array
// no longer than twice its live entries plus slabSlack.
func FuzzSpanSlabMatchesMap(f *testing.F) {
	f.Add(int64(1), uint8(60), false)
	f.Add(int64(2), uint8(90), true)
	f.Add(int64(3), uint8(40), true)
	f.Add(int64(4), uint8(120), false)
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8, hubs bool) {
		r := rand.New(rand.NewSource(seed))
		const keys = 24
		var kt KeyTable[int]
		var sl SpanSlab[timestamp.Time]
		ref := map[int][]timestamp.Time{}
		slot := func(k int) uint32 {
			s := kt.Slot(spread(k), k)
			if int(s) == sl.Spans() {
				sl.Add()
			}
			return s
		}
		outer := uint32(0)
		for round := range int(rounds) {
			if r.Intn(16) == 0 {
				kt.Reset()
				sl.Reset()
				clear(ref)
				outer = 0
			}

			// A batch of pushes, its room reserved first half of the time.
			var batch []int
			for range r.Intn(24) {
				batch = append(batch, r.Intn(keys))
			}
			if hubs && r.Intn(3) == 0 {
				k := r.Intn(2)
				for range 100 + r.Intn(300) {
					batch = append(batch, k)
				}
			}
			if r.Intn(2) == 0 {
				for _, k := range batch {
					sl.Ask(slot(k))
				}
				sl.Reserve()
			}
			for _, k := range batch {
				tm := timestamp.Time{Outer: outer + uint32(r.Intn(3)), Inner: uint32(r.Intn(4))}
				sl.Push(slot(k), tm)
				ref[k] = append(ref[k], tm)
			}

			// Cancels, and now and then a sweep that empties most spans.
			cancel := func(k, i int) {
				s := slot(k)
				es := sl.At(s)
				es[i] = es[len(es)-1]
				sl.Cut(s, len(es)-1)
				ts := ref[k]
				ts[i] = ts[len(ts)-1]
				ref[k] = ts[:len(ts)-1]
			}
			for range r.Intn(12) {
				if k := r.Intn(keys); len(ref[k]) > 0 {
					cancel(k, r.Intn(len(ref[k])))
				}
			}
			if r.Intn(8) == 0 {
				for k := range ref {
					for k%3 != round%3 && len(ref[k]) > 0 {
						cancel(k, 0)
					}
				}
			}

			// A frontier move clamps some keys' times.
			if r.Intn(4) == 0 {
				outer++
				for k, ts := range ref {
					if r.Intn(2) == 0 {
						continue
					}
					s := slot(k)
					es := sl.At(s)
					for i := range es {
						es[i] = ClampTime(es[i], outer)
					}
					slices.SortFunc(es, LexCmp)
					sl.Cut(s, len(slices.Compact(es)))
					for i := range ts {
						ts[i].Outer = max(ts[i].Outer, outer)
					}
					slices.SortFunc(ts, LexCmp)
					ref[k] = slices.Compact(ts)
				}
			}

			live := 0
			for k, ts := range ref {
				s, ok := kt.Find(spread(k), k)
				if !ok || kt.KeyAt(s) != k || kt.HashAt(s) != spread(k) {
					t.Fatalf("round %d: key %d lost its slot", round, k)
				}
				if got := sl.At(s); !slices.Equal(got, ts) {
					t.Fatalf("round %d: key %d holds %v, want %v", round, k, got, ts)
				}
				live += len(ts)
			}
			if sl.Live() != live || len(sl.buf) > 2*live+slabSlack {
				t.Fatalf("round %d: slab %d long, %d live by its count, %d by the reference", round, len(sl.buf), sl.Live(), live)
			}
		}
	})
}
