package knowledge

import (
	"fmt"
	"math/bits"
)

// Bits is a fixed-size bitset over point indices; the truth table of a
// formula across an enumerated system.
type Bits struct {
	n int
	w []uint64
}

// NewBits allocates an all-false table for n points.
func NewBits(n int) *Bits { return &Bits{n: n, w: make([]uint64, (n+63)/64)} }

// Len returns the number of points.
func (b *Bits) Len() int { return b.n }

// Get reports bit i.
func (b *Bits) Get(i int) bool { return b.w[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets bit i to v.
func (b *Bits) Set(i int, v bool) {
	if v {
		b.w[i>>6] |= 1 << uint(i&63)
	} else {
		b.w[i>>6] &^= 1 << uint(i&63)
	}
}

// SetRange sets bits [lo, hi) to true, a word at a time: how a fact
// that is constant along a run is written into all horizon+1 points of
// the run at once.
func (b *Bits) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << uint(lo&63)
	tail := ^uint64(0) >> uint(63-(hi-1)&63)
	if first == last {
		b.w[first] |= head & tail
		return
	}
	b.w[first] |= head
	for i := first + 1; i < last; i++ {
		b.w[i] = ^uint64(0)
	}
	b.w[last] |= tail
}

// Fill sets every bit to v.
func (b *Bits) Fill(v bool) {
	var word uint64
	if v {
		word = ^uint64(0)
	}
	for i := range b.w {
		b.w[i] = word
	}
	b.trim()
}

// trim clears the bits above n so Count and Equal stay exact.
func (b *Bits) trim() {
	if r := uint(b.n & 63); r != 0 && len(b.w) > 0 {
		b.w[len(b.w)-1] &= (1 << r) - 1
	}
}

// Clone copies the table.
func (b *Bits) Clone() *Bits {
	c := NewBits(b.n)
	copy(c.w, b.w)
	return c
}

// AndWith sets b to b ∧ o.
//
// Every word-level mutator ends with trim: the bits past n in the
// final word are always zero, so Count, All, Equal, and table digests
// never see stray tail bits regardless of what the operand carried.
func (b *Bits) AndWith(o *Bits) {
	for i := range b.w {
		b.w[i] &= o.w[i]
	}
	b.trim()
}

// OrWith sets b to b ∨ o.
func (b *Bits) OrWith(o *Bits) {
	for i := range b.w {
		b.w[i] |= o.w[i]
	}
	b.trim()
}

// AndNotWith sets b to b ∧ ¬o — the word-level kernel behind the
// batched E_S and E◇_S scans (out &^= membership-minus-belief masks).
func (b *Bits) AndNotWith(o *Bits) {
	for i := range b.w {
		b.w[i] &^= o.w[i]
	}
	b.trim()
}

// CopyFrom overwrites b with o's bits (same length required). It lets
// fixed-point loops reuse one scratch table instead of cloning per
// iteration.
func (b *Bits) CopyFrom(o *Bits) {
	if b.n != o.n {
		panic(fmt.Sprintf("knowledge: CopyFrom length mismatch %d != %d", b.n, o.n))
	}
	copy(b.w, o.w)
	b.trim()
}

// NotSelf complements b.
func (b *Bits) NotSelf() {
	for i := range b.w {
		b.w[i] = ^b.w[i]
	}
	b.trim()
}

// Count returns the number of true bits.
func (b *Bits) Count() int {
	c := 0
	for _, w := range b.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// All reports whether every bit is true.
func (b *Bits) All() bool { return b.Count() == b.n }

// FirstZero returns the index of the first false bit, or -1 when every
// bit is true. It scans word-by-word (a single compare per 64 points)
// rather than bit-by-bit, so counterexample extraction over a
// million-point table costs microseconds even when the falsifying
// point is deep into the table.
func (b *Bits) FirstZero() int {
	full := ^uint64(0)
	for wi, w := range b.w {
		if w != full {
			idx := wi<<6 + bits.TrailingZeros64(^w)
			if idx >= b.n {
				// The zero lives in the trimmed tail beyond n; every
				// in-range bit of this (final) word is set.
				return -1
			}
			return idx
		}
	}
	return -1
}

// Any reports whether some bit is true.
func (b *Bits) Any() bool {
	for _, w := range b.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether the tables are identical.
func (b *Bits) Equal(o *Bits) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.w {
		if b.w[i] != o.w[i] {
			return false
		}
	}
	return true
}
