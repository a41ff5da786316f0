// Package nodeset provides the dense node-indexed state containers
// every protocol engine keeps its per-node bookkeeping in. Simulation
// node ids are small dense integers (topology generation hands them out
// sequentially), so per-node state belongs in slices indexed by id, not
// in Go maps: no hashing on the hot path, no per-entry allocation, and
// — crucially for the determinism contract — iteration is always in
// ascending id order, so map iteration order can never leak into the
// simulation.
//
// Three containers cover the patterns the engines need:
//
//   - Set: a bitset over node ids (liveness, membership, presence).
//   - Table[T]: a slice-backed map from node id to T with an embedded
//     presence Set.
//   - SeqWindow: a pooled open-addressed map from stream sequence
//     number to sim.Time, replacing the map[uint64]sim.Time patterns
//     (per-peer sentSince, per-node arrival stamps) that dominated
//     allocation profiles at paper scale.
package nodeset

import "math/bits"

// Set is a bitset over non-negative dense ids. The zero value is an
// empty set ready for use.
type Set struct {
	words []uint64
	count int
}

// Add inserts id and reports whether it was absent. id must be >= 0.
func (s *Set) Add(id int) bool {
	w := id >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	mask := uint64(1) << (uint(id) & 63)
	if s.words[w]&mask != 0 {
		return false
	}
	s.words[w] |= mask
	s.count++
	return true
}

// Remove deletes id and reports whether it was present. Out-of-range
// (including negative) ids are absent.
func (s *Set) Remove(id int) bool {
	if id < 0 {
		return false
	}
	w := id >> 6
	if w >= len(s.words) {
		return false
	}
	mask := uint64(1) << (uint(id) & 63)
	if s.words[w]&mask == 0 {
		return false
	}
	s.words[w] &^= mask
	s.count--
	return true
}

// Contains reports whether id is in the set. Out-of-range (including
// negative) ids are absent.
func (s *Set) Contains(id int) bool {
	if id < 0 {
		return false
	}
	w := id >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// Len returns the number of ids in the set.
func (s *Set) Len() int { return s.count }

// Range calls fn for every id in ascending order; fn returning false
// stops the iteration. Mutating the set during Range is unsupported.
func (s *Set) Range(fn func(id int) bool) {
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(w<<6 + b) {
				return
			}
			word &^= 1 << uint(b)
		}
	}
}

// AppendIDs appends the ids in ascending order to dst and returns it.
func (s *Set) AppendIDs(dst []int) []int {
	s.Range(func(id int) bool {
		dst = append(dst, id)
		return true
	})
	return dst
}

// Table is a slice-backed map from non-negative dense ids to T.
// The zero value is an empty table ready for use. Lookups are O(1)
// slice indexing; iteration is always in ascending id order.
type Table[T any] struct {
	vals []T
	set  Set
}

// Put stores v under id (id >= 0), growing the table as needed.
func (t *Table[T]) Put(id int, v T) {
	for id >= len(t.vals) {
		var zero T
		t.vals = append(t.vals, zero)
	}
	t.vals[id] = v
	t.set.Add(id)
}

// Get returns the value stored under id and whether one is present.
func (t *Table[T]) Get(id int) (T, bool) {
	if !t.set.Contains(id) {
		var zero T
		return zero, false
	}
	return t.vals[id], true
}

// At returns the value stored under id, or the zero value when absent.
func (t *Table[T]) At(id int) T {
	if !t.set.Contains(id) {
		var zero T
		return zero
	}
	return t.vals[id]
}

// Contains reports whether id has an entry.
func (t *Table[T]) Contains(id int) bool { return t.set.Contains(id) }

// Delete removes id's entry (zeroing the slot so references are
// released) and reports whether one was present.
func (t *Table[T]) Delete(id int) bool {
	if !t.set.Remove(id) {
		return false
	}
	var zero T
	t.vals[id] = zero
	return true
}

// Len returns the number of entries.
func (t *Table[T]) Len() int { return t.set.Len() }

// Range calls fn for every (id, value) pair in ascending id order; fn
// returning false stops the iteration. Mutating the table during Range
// is unsupported (like Set.Range): a Delete ahead of the iteration
// position can still be visited, with a zeroed value. Snapshot with
// IDs first when the walk must mutate.
func (t *Table[T]) Range(fn func(id int, v T) bool) {
	t.set.Range(func(id int) bool { return fn(id, t.vals[id]) })
}
