package graph

import (
	"math/bits"
	"slices"
)

// Bitset is a fixed-length bit vector over row indices: one column of a
// collection's edge boolean matrix, one compiled predicate's rows, or a row
// mask.
type Bitset struct {
	n     int
	words []uint64
}

// NewBitset creates a bitset of n bits, all zero.
func NewBitset(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Words returns the backing words for word-wise callers: bit i is bit i%64
// of word i/64. Bits past the bitset's length must stay zero.
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Grow extends the bitset to n bits (no-op if already that long); new bits
// are zero. Used when maintenance appends edges to a base graph.
func (b *Bitset) Grow(n int) {
	if n <= b.n {
		return
	}
	b.words = append(b.words, make([]uint64, (n+63)/64-len(b.words))...)
	b.n = n
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndNot returns the ascending indices of the bits set in b and not in o (nil
// for none), in a slice of exactly that size. A nil o clears nothing, so
// b.AndNot(nil) lists b's members.
func (b *Bitset) AndNot(o *Bitset) []uint32 { return b.AppendAndNot(nil, o) }

// AppendAndNot appends the ascending indices of the bits set in b and not in
// o to dst and returns the extended slice. It counts them first, so dst grows
// at most once, to exactly the size needed; a caller that passes a spare
// list's dst[:0] back in reuses its array.
func (b *Bitset) AppendAndNot(dst []uint32, o *Bitset) []uint32 {
	var ow []uint64
	if o != nil {
		ow = o.words
	}
	n := 0
	for i, w := range b.words {
		if i < len(ow) {
			w &^= ow[i]
		}
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for i, w := range b.words {
		if i < len(ow) {
			w &^= ow[i]
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(i<<6|bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// HammingDistance returns the number of positions where b and o differ.
// Both bitsets must have the same length.
func (b *Bitset) HammingDistance(o *Bitset) int {
	c := 0
	for i, w := range b.words {
		c += bits.OnesCount64(w ^ o.words[i])
	}
	return c
}
