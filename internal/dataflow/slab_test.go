package dataflow

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"graphsurge/internal/arrange"
)

// spread is a test key's hash: the key table probes on the top bits.
func spread(k int) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

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

func statOf[E any](name string, sl *arrange.SpanSlab[E]) slabStat {
	buf, spare := sl.Arrays()
	a, b := unsafe.Pointer(unsafe.SliceData(buf)), unsafe.Pointer(unsafe.SliceData(spare))
	if uintptr(b) < uintptr(a) {
		a, b = b, a
	}
	return slabStat{name, len(buf), sl.Live(), [2]unsafe.Pointer{a, b}}
}

// slabs returns each worker's by-source, by-destination and time slabs.
func (p *relaxProbe) slabs() []slabStat {
	var st []slabStat
	for _, sh := range p.node.st {
		st = append(st, statOf("bySrc", &sh.bySrc.SpanSlab), statOf("byDst", &sh.byDst.SpanSlab), statOf("times", &sh.sched.times))
	}
	return st
}

// TestRelaxSlabOccupancy runs the sssp probe at 1 and 3 workers. Each
// worker's by-source and by-destination edge indexes and its schedule's time
// slab must end at most 1.5 times their live entries (2.6 times while a full
// span moved to the slab's end and left its old room dead until a reset).
// Then the scope is reset and the views replayed: no slab may take a new
// array, and a bare vertex table and total indexes replaying the probe's
// edge batches after a reset must allocate nothing.
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
	var verts arrange.KeyTable[int]
	var bySrc, byDst totalIndex[arc]
	var srcs, dsts []uint32
	replay := func() {
		verts.Reset()
		bySrc.reset()
		byDst.reset()
		for _, ups := range p.views {
			bySrc.begin()
			byDst.begin()
			srcs, dsts = srcs[:0], dsts[:0]
			for _, u := range ups {
				s, d := verts.Slot(spread(u.Rec.K), u.Rec.K), verts.Slot(spread(u.Rec.V.Dst), u.Rec.V.Dst)
				bySrc.Ask(s)
				byDst.Ask(d)
				srcs, dsts = append(srcs, s), append(dsts, d)
			}
			bySrc.Reserve()
			byDst.Reserve()
			for i, u := range ups {
				bySrc.add(srcs[i], u.Rec.V, u.D)
				byDst.add(dsts[i], u.Rec.V, u.D)
			}
		}
	}
	replay()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	replay()
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 0 {
		t.Errorf("a reset vertex table and total indexes replaying the probe's edge batches allocated %d B, want none", b)
	}
}
