// Package bitmap holds Dense, the word-packed membership set the read path
// builds its per-query masks from.
package bitmap

import "math/bits"

// Dense is an uncompressed, word-packed bitset over a small code domain
// (hierarchy-level value codes, not fact rows).
// It is a plain word slice so callers can carve many bitsets out of one
// shared arena: a Dense of n bits occupies DenseWords(n) words, 8× denser
// than a []bool, and a membership test is one shift-and-mask on a word —
// the compact-hierarchical-representation idea of Brisaboa et al.
// (arXiv:1612.04094) applied to per-query membership masks.
//
// The zero-length Dense is a valid empty set. Get is bounds-tolerant (codes
// beyond the backing words read as absent); Set panics beyond capacity,
// like a slice write.
type Dense []uint64

// DenseWords returns the number of words backing a Dense of n bits.
func DenseWords(n int) int { return (n + 63) / 64 }

// NewDense returns a zeroed Dense with capacity for n bits.
func NewDense(n int) Dense { return make(Dense, DenseWords(n)) }

// Set marks code i as a member.
func (d Dense) Set(i uint32) { d[i>>6] |= 1 << (i & 63) }

// Get reports whether code i is a member; codes beyond the backing words
// are absent.
func (d Dense) Get(i uint32) bool {
	w := int(i >> 6)
	return w < len(d) && d[w]>>(i&63)&1 != 0
}

// Clear zeroes every bit, keeping the capacity.
func (d Dense) Clear() {
	for i := range d {
		d[i] = 0
	}
}

// Count returns the number of set bits.
func (d Dense) Count() int {
	n := 0
	for _, w := range d {
		n += bits.OnesCount64(w)
	}
	return n
}
