// Package bitset provides a dense bit set used by the dataflow
// analysis (liveness) that feeds the register allocator. Sets are
// fixed-capacity; all elements must be in [0, n) where n is the
// capacity given to New or NewMany.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New to create a set with room for n elements.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for elements in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewMany returns count empty sets, each with capacity for elements
// in [0, n), carved from one backing array: three allocations however
// many sets, which is what a per-block dataflow analysis wants.
func NewMany(count, n int) []*Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	nw := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*nw)
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*nw : (i+1)*nw : (i+1)*nw], n: n}
		out[i] = &sets[i]
	}
	return out
}

// Cap returns the capacity of the set.
func (s *Set) Cap() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Copy returns an independent copy of s.
func (s *Set) Copy() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of o. The sets must have
// the same capacity.
func (s *Set) CopyFrom(o *Set) {
	s.check(o)
	copy(s.words, o.words)
}

// Union adds every element of o to s and reports whether s changed.
func (s *Set) Union(o *Set) bool {
	s.check(o)
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// SetUnionMinus sets s to a ∪ (b − c), the transfer function of a
// backward liveness problem, in one pass over the words, and reports
// whether s changed. All four sets must have the same capacity.
func (s *Set) SetUnionMinus(a, b, c *Set) bool {
	s.check(a)
	s.check(b)
	s.check(c)
	changed := false
	for i := range s.words {
		nw := a.words[i] | b.words[i]&^c.words[i]
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Subtract removes from s every element of o.
func (s *Set) Subtract(o *Set) {
	s.check(o)
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Equal reports whether s and o contain the same elements.
func (s *Set) Equal(o *Set) bool {
	s.check(o)
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Words returns the set's backing words: element i is bit i%64 of
// word i/64, and the bits past Cap are zero. The caller must not
// modify them.
func (s *Set) Words() []uint64 { return s.words }

// ForEach calls f for each element of the set in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Next returns the smallest element >= i, or -1 if there is none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) check(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}
