package coherence

import "math/bits"

// bitset is a fixed-size CPU set (128 CPUs = 2 words).
type bitset []uint64

func newBitset(words int) bitset { return make(bitset, words) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach visits set bits in ascending order. It snapshots each word before
// iterating so callers may clear bits during the walk.
func (b bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			fn(i)
		}
	}
}
