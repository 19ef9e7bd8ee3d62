package graph

import (
	"slices"
	"testing"
)

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("get/set")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	o := NewBitset(130)
	o.Set(0)
	o.Set(100)
	if d := b.HammingDistance(o); d != 3 {
		t.Fatalf("hamming = %d", d)
	}
	if len(b.Words()) != 3 || b.Words()[1] != 1 {
		t.Fatal("words")
	}
	if got := b.AndNot(o); !slices.Equal(got, []uint32{64, 129}) {
		t.Fatalf("and-not = %v", got)
	}
	if got := b.AndNot(nil); !slices.Equal(got, []uint32{0, 64, 129}) {
		t.Fatalf("members = %v", got)
	}
	if got := o.AndNot(o); got != nil {
		t.Fatalf("self and-not = %v", got)
	}
	b.Grow(200)
	if len(b.Words()) != 4 || !b.Get(129) || b.Get(199) {
		t.Fatal("grow")
	}
	b.Set(199)
	if got := b.AndNot(o); !slices.Equal(got, []uint32{64, 129, 199}) {
		t.Fatalf("and-not of a shorter bitset = %v", got)
	}
	spare := make([]uint32, 1, 8)
	spare[0] = 7
	if got := b.AppendAndNot(spare, o); !slices.Equal(got, []uint32{7, 64, 129, 199}) || &got[0] != &spare[0] {
		t.Fatalf("append and-not = %v, in its own array: %v", got, &got[0] != &spare[0])
	}
	if got := o.AppendAndNot(spare[:0], o); len(got) != 0 || cap(got) != 8 {
		t.Fatalf("empty append and-not = %v with capacity %d", got, cap(got))
	}
}
