// Package order provides partial-order machinery used throughout the GEM
// toolkit: compact bitsets over event indices, DAG reachability (transitive
// closure), topological sorting, and enumeration of linear extensions and
// antichains. These are the computational substrate for GEM's temporal
// order, histories, and valid history sequences.
package order

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-capacity set of small non-negative integers. The zero
// value is an empty set of capacity zero; use NewBitset to size it.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset returns an empty set able to hold values in [0, n).
func NewBitset(n int) Bitset {
	if n < 0 {
		n = 0
	}
	return Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Rows is a relation over n elements: n bit rows of one stride, in one
// array. It holds no pointer per row, so a relation costs one allocation
// and the collector never scans it whatever its size. Row hands out a
// row as a Bitset that shares the array.
type Rows struct {
	words  []uint64
	n      int
	stride int // words per row
}

// NewRows returns the empty relation over n elements.
func NewRows(n int) Rows {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	return Rows{words: make([]uint64, n*w), n: n, stride: w}
}

// Row returns row i as a set over [0, n) backed by r's array: writes to
// it change r. It allocates nothing.
func (r Rows) Row(i int) Bitset {
	lo := i * r.stride
	return Bitset{words: r.words[lo : lo+r.stride : lo+r.stride], n: r.n}
}

// Has reports whether row i holds j. Out-of-range values of j are never
// members.
func (r Rows) Has(i, j int) bool {
	if j < 0 || j >= r.n {
		return false
	}
	return r.words[i*r.stride+j/wordBits]&(1<<(uint(j)%wordBits)) != 0
}

// Set adds i to the set. It panics if i is out of range, since that always
// indicates a logic error in the caller.
func (b Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("order: Bitset.Set(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear removes i from the set.
func (b Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("order: Bitset.Clear(%d) out of range [0,%d)", i, b.n))
	}
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set. Out-of-range values are never
// members.
func (b Bitset) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members.
func (b Bitset) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns an independent copy of the set.
func (b Bitset) Clone() Bitset {
	out := Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(out.words, b.words)
	return out
}

// OrWith adds every member of other to b. The sets must have equal capacity.
func (b Bitset) OrWith(other Bitset) {
	b.mustMatch(other)
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndWith removes from b every value not in other.
func (b Bitset) AndWith(other Bitset) {
	b.mustMatch(other)
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// AndNotWith removes from b every member of other.
func (b Bitset) AndNotWith(other Bitset) {
	b.mustMatch(other)
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// CopyFrom overwrites b's members with other's. The sets must have equal
// capacity. Unlike Clone it reuses b's storage, so hot loops can keep one
// scratch set instead of allocating per iteration.
func (b Bitset) CopyFrom(other Bitset) {
	b.mustMatch(other)
	copy(b.words, other.words)
}

// Reset removes every member, reusing the storage.
func (b Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill adds every value in [0, Cap()) to the set. Bits beyond the
// capacity stay clear so Count and ForEach remain exact.
func (b Bitset) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := b.n % wordBits; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << uint(tail)) - 1
	}
}

// FlipAll replaces the set with its complement over [0, Cap()), reusing
// the storage. Bits beyond the capacity stay clear, like Fill.
func (b Bitset) FlipAll() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	if tail := b.n % wordBits; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(tail)) - 1
	}
}

// SubsetOf reports whether every member of b is a member of other.
func (b Bitset) SubsetOf(other Bitset) bool {
	b.mustMatch(other)
	for i := range b.words {
		if b.words[i]&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether b and other share at least one member.
func (b Bitset) Intersects(other Bitset) bool {
	b.mustMatch(other)
	for i := range b.words {
		if b.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every member in increasing order. If fn returns
// false, iteration stops early.
func (b Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Members returns the members in increasing order.
func (b Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Key returns a string usable as a map key identifying the set contents.
func (b Bitset) Key() string {
	var sb strings.Builder
	sb.Grow(len(b.words) * 8)
	for _, w := range b.words {
		for shift := 0; shift < wordBits; shift += 8 {
			sb.WriteByte(byte(w >> uint(shift)))
		}
	}
	return sb.String()
}

// String renders the set as {a, b, c}.
func (b Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}

// IsClique reports whether every pair of distinct members of set is
// related under the symmetric relation rows, where row v is the set of
// partners of v. Empty and singleton sets are cliques. In GEM terms, with
// rows the per-event concurrency rows of a computation, it decides in
// O(|set| × words) whether a step's delta is pairwise potentially
// concurrent — replacing the O(|delta|²) member-pair loop.
func IsClique(rows Rows, set Bitset) bool {
	clique := true
	set.ForEach(func(v int) bool {
		row := rows.words[v*rows.stride : (v+1)*rows.stride]
		for i, w := range set.words {
			rem := w &^ row[i]
			if i == v/wordBits {
				rem &^= 1 << (uint(v) % wordBits)
			}
			if rem != 0 {
				clique = false
				return false
			}
		}
		return true
	})
	return clique
}

func (b Bitset) mustMatch(other Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("order: bitset capacity mismatch %d != %d", b.n, other.n))
	}
}
