package dataflow

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"graphsurge/internal/timestamp"
)

// spread is a test key's hash: the key table probes on the top bits.
func spread(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// slabRec is one update of a totalIndex batch.
type slabRec struct {
	k, v int
	d    int64
}

// refRun is the reference for one key of a totalIndex: its pairs in the
// index's order, and which of them were there before its last batch.
type refRun struct {
	ps         []VD[int]
	old, epoch uint32
}

// add is totalIndex.addAt on a plain slice: a value is looked for among the
// pairs before the batch, a pair that cancels is replaced by the last old
// pair and that by the batch's last pair, and a new value goes last.
func (r *refRun) add(epoch uint32, v int, d int64) int64 {
	if r.epoch != epoch {
		r.epoch, r.old = epoch, uint32(len(r.ps))
	}
	for i := range r.ps[:r.old] {
		if r.ps[i].V != v {
			continue
		}
		was := r.ps[i].D
		if r.ps[i].D += d; r.ps[i].D == 0 {
			r.old--
			r.ps[i], r.ps[r.old] = r.ps[r.old], r.ps[len(r.ps)-1]
			r.ps = r.ps[:len(r.ps)-1]
		}
		return was
	}
	r.ps = append(r.ps, VD[int]{v, d})
	return 0
}

// FuzzSpanSlabMatchesMap holds the per-key span stores to per-key slices. A
// totalIndex takes consolidated batches of inserts, count changes and
// cancels, with hub keys that take hundreds of values at once and sweeps
// that cancel every pair of most keys, half of the batches reserved before
// they are added; a keyIndex is pushed times and
// advanced past a moving frontier; both are reset now and then. After every
// batch each key's pairs and each key's times must be the reference's, in
// order, and neither slab may be longer than twice its live entries plus
// slabSlack.
func FuzzSpanSlabMatchesMap(f *testing.F) {
	f.Add(int64(1), uint8(60), false)
	f.Add(int64(2), uint8(90), true)
	f.Add(int64(3), uint8(40), true)
	f.Add(int64(4), uint8(120), false)
	f.Fuzz(func(t *testing.T, seed int64, rounds uint8, hubs bool) {
		r := rand.New(rand.NewSource(seed))
		const keys = 24
		var ix totalIndex[int, int]
		var ki keyIndex[int]
		runs := map[int]*refRun{}
		times := map[int][]timestamp.Time{}
		advanced := map[int]uint32{} // 1 + the outer a key's times were last advanced to
		outer := uint32(0)
		for round := range int(rounds) {
			if r.Intn(16) == 0 {
				ix.reset()
				ki.reset()
				clear(runs)
				clear(times)
				clear(advanced)
				outer = 0
			}

			// A consolidated batch: each (key, value) once.
			var batch []slabRec
			seen := map[KV[int, int]]bool{}
			put := func(k, v int, d int64) {
				if kv := (KV[int, int]{k, v}); !seen[kv] && d != 0 {
					seen[kv] = true
					batch = append(batch, slabRec{k, v, d})
				}
			}
			for range r.Intn(24) {
				k := r.Intn(keys)
				if rr := runs[k]; rr != nil && len(rr.ps) > 0 && r.Intn(3) == 0 {
					p := rr.ps[r.Intn(len(rr.ps))] // cancel it, or change its count
					put(k, p.V, []int64{-p.D, -p.D, 1, -1}[r.Intn(4)])
					continue
				}
				put(k, r.Intn(12), int64(r.Intn(5)-2))
			}
			if hubs && r.Intn(3) == 0 {
				k := r.Intn(2)
				for range 100 + r.Intn(300) {
					put(k, r.Intn(2000), 1)
				}
			}
			if r.Intn(8) == 0 { // a sweep: every pair of some keys cancels
				for k, rr := range runs {
					for _, p := range rr.ps {
						if k%3 != round%3 {
							put(k, p.V, -p.D)
						}
					}
				}
			}
			ix.begin()
			reserved := r.Intn(2) == 0
			slots := make([]uint32, len(batch))
			for i, b := range batch {
				if slots[i] = ix.slot(spread(b.k), b.k); reserved && b.d > 0 {
					ix.slab.ask(slots[i])
				}
			}
			if reserved {
				ix.slab.reserve()
			}
			for i, b := range batch {
				rr := runs[b.k]
				if rr == nil {
					rr = &refRun{}
					runs[b.k] = rr
				}
				if was, want := ix.addAt(slots[i], b.v, b.d), rr.add(ix.epoch, b.v, b.d); was != want {
					t.Fatalf("round %d: (%d, %d) was %d, want %d", round, b.k, b.v, was, want)
				}
			}

			// Times: pushes at and past the frontier, then, now and then, a
			// frontier move that advances some keys.
			for range r.Intn(16) {
				k := r.Intn(keys)
				tm := timestamp.Time{Outer: outer + uint32(r.Intn(3)), Inner: uint32(r.Intn(4))}
				ki.slab.push(ki.slot(spread(k), k), tm)
				times[k] = append(times[k], tm)
			}
			if r.Intn(4) == 0 {
				outer++
				for k, ts := range times {
					if r.Intn(2) == 0 || advanced[k] >= outer+1 {
						continue
					}
					ki.advance(ki.slot(spread(k), k), outer)
					advanced[k] = outer + 1
					for i := range ts {
						ts[i].Outer = max(ts[i].Outer, outer)
					}
					slices.SortFunc(ts, func(a, b timestamp.Time) int {
						return cmp.Or(cmp.Compare(a.Outer, b.Outer), cmp.Compare(a.Inner, b.Inner))
					})
					times[k] = slices.Compact(ts)
				}
			}

			live := 0
			for k, rr := range runs {
				if got := ix.pairs(spread(k), k); !slices.Equal(got, rr.ps) {
					t.Fatalf("round %d: key %d holds %v, want %v", round, k, got, rr.ps)
				}
				live += len(rr.ps)
			}
			if ix.slab.live != live || len(ix.slab.buf) > 2*live+slabSlack {
				t.Fatalf("round %d: pair slab %d long, %d live by its count, %d by the reference", round, len(ix.slab.buf), ix.slab.live, live)
			}
			live = 0
			for k, ts := range times {
				s, _ := ki.find(spread(k), k)
				if got := ki.slab.at(s); !slices.Equal(got, ts) {
					t.Fatalf("round %d: key %d has times %v, want %v", round, k, got, ts)
				}
				live += len(ts)
			}
			if ki.slab.live != live || len(ki.slab.buf) > 2*live+slabSlack {
				t.Fatalf("round %d: time slab %d long, %d live by its count, %d by the reference", round, len(ki.slab.buf), ki.slab.live, live)
			}
		}
	})
}

// relaxProbe is the similar-collection sssp shape: a temporal graph of 1 000
// vertices and 10 000 weighted edges with timestamps in [0, 128), run from
// vertex 0 over 16 expanding windows ts < 64+4i, one version each.
type relaxProbe struct {
	s     *Scope
	ein   *Input[KV[int, arc]]
	rin   *Input[KV[int, int]]
	views [][]Update[KV[int, arc]]
	node  *relaxNode[int, int, int, arc]
}

func newRelaxProbe(workers int) *relaxProbe {
	p := &relaxProbe{s: NewScope(workers), views: make([][]Update[KV[int, arc]], 16)}
	var edges *Collection[KV[int, arc]]
	var roots *Collection[KV[int, int]]
	p.ein, edges = NewInput[KV[int, arc]](p.s)
	p.rin, roots = NewInput[KV[int, int]](p.s)
	Iterate(roots, func(x *Collection[KV[int, int]]) *Collection[KV[int, int]] {
		return JoinMin(x, edges, roots, plain(func(v int, e arc) int { return v + e.W }))
	})
	for _, n := range p.s.nodes {
		if rn, ok := n.(*relaxNode[int, int, int, arc]); ok {
			p.node = rn
		}
	}
	r := rand.New(rand.NewSource(1))
	for range 10000 {
		e := KV[int, arc]{r.Intn(1000), arc{r.Intn(1000), 1 + r.Intn(9)}}
		if i := max(0, (r.Intn(128)-60)/4); i < len(p.views) { // the first window with ts < 64+4i
			p.views[i] = append(p.views[i], Update[KV[int, arc]]{e, 1})
		}
	}
	return p
}

// run feeds the views as versions 0..15 of a differential run, compacting
// after each, as a runner does.
func (p *relaxProbe) run() {
	p.rin.SendAt(0, []Update[KV[int, int]]{{KV[int, int]{0, 0}, 1}})
	for v, ups := range p.views {
		p.ein.SendAt(uint32(v), ups)
		p.s.Drain()
		p.s.Compact(uint32(v))
	}
}

// slabStat is one slab's length, live entries and arrays.
type slabStat struct {
	name         string
	length, live int
	arrays       [2]unsafe.Pointer // buf's and spare's, in address order
}

func statOf[E any](name string, sl *spanSlab[E]) slabStat {
	a, b := unsafe.Pointer(unsafe.SliceData(sl.buf)), unsafe.Pointer(unsafe.SliceData(sl.spare))
	if uintptr(b) < uintptr(a) {
		a, b = b, a
	}
	return slabStat{name, len(sl.buf), sl.live, [2]unsafe.Pointer{a, b}}
}

// slabs returns each worker's by-source, by-destination and time slabs.
func (p *relaxProbe) slabs() []slabStat {
	var st []slabStat
	for _, sh := range p.node.st {
		st = append(st, statOf("bySrc", &sh.bySrc.slab), statOf("byDst", &sh.byDst.slab), statOf("times", &sh.sched.keys.slab))
	}
	return st
}

// TestRelaxSlabOccupancy runs the sssp probe at 1 and 3 workers. Each
// worker's by-source and by-destination edge indexes and its schedule's time
// slab must end at most 1.5 times their live entries (2.6 times while a full
// span moved to the slab's end and left its old room dead until a reset).
// Then the scope is reset and the views replayed: no slab may take a new
// array, and a bare total index replaying the probe's edge batches after a
// reset must allocate nothing.
func TestRelaxSlabOccupancy(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := newRelaxProbe(workers)
		p.run()
		before := p.slabs()
		for w, st := range before {
			t.Logf("workers %d, worker %d: %s %d entries for %d live (%.2f×)", workers, w/3, st.name, st.length, st.live, float64(st.length)/float64(st.live))
			if 2*st.length > 3*st.live {
				t.Errorf("workers %d, worker %d: %s is %d entries for %d live, want at most 1.5×", workers, w/3, st.name, st.length, st.live)
			}
		}
		p.s.ResetState()
		p.run()
		for i, st := range p.slabs() {
			if st.arrays != before[i].arrays || st.live != before[i].live {
				t.Errorf("workers %d, worker %d: the replay's %s took a new array or ended elsewhere (%d live, was %d)", workers, i/3, st.name, st.live, before[i].live)
			}
		}
	}

	p := newRelaxProbe(1)
	var bySrc, byDst totalIndex[int, arc]
	var srcs, dsts []uint32
	replay := func() {
		bySrc.reset()
		byDst.reset()
		for _, ups := range p.views {
			bySrc.begin()
			byDst.begin()
			srcs, dsts = srcs[:0], dsts[:0]
			for _, u := range ups {
				s, d := bySrc.slot(spread(u.Rec.K), u.Rec.K), byDst.slot(spread(u.Rec.V.Dst), u.Rec.V.Dst)
				bySrc.slab.ask(s)
				byDst.slab.ask(d)
				srcs, dsts = append(srcs, s), append(dsts, d)
			}
			bySrc.slab.reserve()
			byDst.slab.reserve()
			for i, u := range ups {
				bySrc.addAt(srcs[i], u.Rec.V, u.D)
				byDst.addAt(dsts[i], u.Rec.V, u.D)
			}
		}
	}
	replay()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	replay()
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 0 {
		t.Errorf("a reset total index replaying the probe's edge batches allocated %d B, want none", b)
	}
}
