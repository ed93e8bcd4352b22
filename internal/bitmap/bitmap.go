// Package bitmap implements dense fixed-size bitsets used for the dirty
// block, dirty segment, and dirty page tracking structures of the
// checkpoint-recovery protocols. The hot paths (Set, Test) are branch-light
// because the instrumented write hook executes them on every store.
package bitmap

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity bitset. The zero value is unusable; create one
// with New. Set is not safe for concurrent mutation.
type Set struct {
	words []uint64
	n     int
	count int
}

// New returns a bitset holding n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Count returns the number of set bits.
func (s *Set) Count() int { return s.count }

// Any reports whether at least one bit is set.
func (s *Set) Any() bool { return s.count > 0 }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i and reports whether it was previously clear.
func (s *Set) Set(i int) bool {
	w, m := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	if s.words[w]&m != 0 {
		return false
	}
	s.words[w] |= m
	s.count++
	return true
}

// Clear clears bit i and reports whether it was previously set.
func (s *Set) Clear(i int) bool {
	w, m := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	if s.words[w]&m == 0 {
		return false
	}
	s.words[w] &^= m
	s.count--
	return true
}

func (s *Set) checkRange(from, to int) {
	if from < 0 || to > s.n || from > to {
		panic("bitmap: range out of bounds")
	}
}

// rangeMask returns the mask of bits a range covers within word w, where the
// range spans words [wFrom, wTo] with intra-word bit offsets bFrom and bTo
// (bTo is the offset of the last bit, inclusive).
func rangeMask(w, wFrom, wTo, bFrom, bTo int) uint64 {
	m := ^uint64(0)
	if w == wFrom {
		m &= ^uint64(0) << uint(bFrom)
	}
	if w == wTo {
		m &= ^uint64(0) >> uint(wordBits-1-bTo)
	}
	return m
}

// SetRange sets bits [from, to), one masked word at a time.
func (s *Set) SetRange(from, to int) {
	s.checkRange(from, to)
	if from >= to {
		return
	}
	wFrom, wTo := from/wordBits, (to-1)/wordBits
	bFrom, bTo := from%wordBits, (to-1)%wordBits
	for w := wFrom; w <= wTo; w++ {
		m := rangeMask(w, wFrom, wTo, bFrom, bTo)
		s.count += bits.OnesCount64(m &^ s.words[w])
		s.words[w] |= m
	}
}

// ClearRange clears bits [from, to), one masked word at a time.
func (s *Set) ClearRange(from, to int) {
	s.checkRange(from, to)
	if from >= to {
		return
	}
	wFrom, wTo := from/wordBits, (to-1)/wordBits
	bFrom, bTo := from%wordBits, (to-1)%wordBits
	for w := wFrom; w <= wTo; w++ {
		m := rangeMask(w, wFrom, wTo, bFrom, bTo)
		s.count -= bits.OnesCount64(m & s.words[w])
		s.words[w] &^= m
	}
}

// ClearAll clears every bit.
func (s *Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// NextSet returns the index of the first set bit at or after from, or -1 if
// there is none.
func (s *Set) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	w := from / wordBits
	word := s.words[w] >> (uint(from) % wordBits)
	if word != 0 {
		i := from + bits.TrailingZeros64(word)
		if i < s.n {
			return i
		}
		return -1
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			i := w*wordBits + bits.TrailingZeros64(s.words[w])
			if i < s.n {
				return i
			}
			return -1
		}
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for w, word := range s.words {
		for word != 0 {
			i := w*wordBits + bits.TrailingZeros64(word)
			if i >= s.n {
				return
			}
			fn(i)
			word &= word - 1
		}
	}
}

// CountRange returns the number of set bits in [from, to), using a popcount
// per word rather than a scan per bit.
func (s *Set) CountRange(from, to int) int {
	s.checkRange(from, to)
	if from >= to {
		return 0
	}
	wFrom, wTo := from/wordBits, (to-1)/wordBits
	bFrom, bTo := from%wordBits, (to-1)%wordBits
	n := 0
	for w := wFrom; w <= wTo; w++ {
		n += bits.OnesCount64(s.words[w] & rangeMask(w, wFrom, wTo, bFrom, bTo))
	}
	return n
}

// NextSetInRange returns the index of the first set bit in [from, to), or -1
// if there is none.
func (s *Set) NextSetInRange(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > s.n {
		to = s.n
	}
	if from >= to {
		return -1
	}
	w := from / wordBits
	word := s.words[w] >> (uint(from) % wordBits)
	if word != 0 {
		if i := from + bits.TrailingZeros64(word); i < to {
			return i
		}
		return -1
	}
	for w++; w*wordBits < to; w++ {
		if s.words[w] != 0 {
			if i := w*wordBits + bits.TrailingZeros64(s.words[w]); i < to {
				return i
			}
			return -1
		}
	}
	return -1
}

// nextClearInRange returns the index of the first clear bit in [from, to),
// or to if every bit in the range is set.
func (s *Set) nextClearInRange(from, to int) int {
	if from >= to {
		return to
	}
	w := from / wordBits
	word := ^s.words[w] >> (uint(from) % wordBits)
	if word != 0 {
		if i := from + bits.TrailingZeros64(word); i < to {
			return i
		}
		return to
	}
	for w++; w*wordBits < to; w++ {
		if s.words[w] != ^uint64(0) {
			if i := w*wordBits + bits.TrailingZeros64(^s.words[w]); i < to {
				return i
			}
			return to
		}
	}
	return to
}

// ForEachRunInRange calls fn(runFrom, runTo) for every maximal run of
// consecutive set bits inside [from, to), in ascending order. Callers use it
// to coalesce adjacent dirty blocks into single batched flushes or copies.
// fn must not mutate the set.
func (s *Set) ForEachRunInRange(from, to int, fn func(runFrom, runTo int)) {
	if from < 0 {
		from = 0
	}
	if to > s.n {
		to = s.n
	}
	for b := s.NextSetInRange(from, to); b >= 0; b = s.NextSetInRange(b, to) {
		e := s.nextClearInRange(b+1, to)
		fn(b, e)
		if e >= to {
			return
		}
		b = e
	}
}

// Union sets every bit of s that is set in o. The two sets must have the
// same capacity.
func (s *Set) Union(o *Set) {
	if s.n != o.n {
		panic("bitmap: size mismatch")
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
	s.recount()
}

// CopyFrom makes s an exact copy of o. The two sets must have the same
// capacity.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("bitmap: size mismatch")
	}
	copy(s.words, o.words)
	s.count = o.count
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := New(s.n)
	c.CopyFrom(s)
	return c
}

func (s *Set) recount() {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	s.count = n
}
