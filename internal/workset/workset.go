// Package workset tracks the set of stream sequence numbers a node has
// received over a sliding window (§3.1): the working set backs the
// node's Bloom filter, its summary ticket, and the (Low, High) recovery
// range it advertises to sending peers. It also implements the Figure 4
// sequence matrix: partitioning the sequence space by "mod rows" across
// senders so peers transmit disjoint data.
package workset

import "math/bits"

// Set is a windowed set of sequence numbers, stored as a dense bitmap
// anchored at a word-aligned base. Sequence windows are contiguous and
// bounded — TrimBelow keeps the retained span within the recovery
// window — so a bitmap holds the whole set in a few kilobytes and
// turns the hot-path membership tests and range scans into bit
// operations instead of map probes. The bitmap covers [base, base +
// 64*len(words)); bits outside [low, max] are always zero.
type Set struct {
	words []uint64
	base  uint64 // sequence of bit 0; multiple of 64, base <= all held
	low   uint64 // smallest retained (inclusive); seqs below are forgotten
	max   uint64 // largest ever added
	n     int    // retained count (set bits)
	any   bool
}

// New creates an empty working set.
func New() *Set {
	return &Set{}
}

func (s *Set) bit(seq uint64) (word, mask uint64, in bool) {
	if seq < s.base {
		return 0, 0, false
	}
	idx := seq - s.base
	if idx >= uint64(len(s.words))*64 {
		return 0, 0, false
	}
	return idx >> 6, 1 << (idx & 63), true
}

// ensure grows or re-anchors the bitmap so seq is addressable. The
// base only moves down to cover a late add above low; trimmed space at
// the front is reclaimed by rebasing when it exceeds the live span.
func (s *Set) ensure(seq uint64) (word, mask uint64) {
	if !s.any {
		s.base = seq &^ 63
	} else if seq < s.base {
		// Out-of-order add below the anchor: prepend words.
		newBase := seq &^ 63
		shift := (s.base - newBase) >> 6
		s.words = append(s.words, make([]uint64, shift)...)
		copy(s.words[shift:], s.words[:len(s.words)-int(shift)])
		for i := uint64(0); i < shift; i++ {
			s.words[i] = 0
		}
		s.base = newBase
	} else if lw := s.low &^ 63; lw > s.base {
		if off := lw - s.base; off>>6 >= uint64(len(s.words))/2 && off >= 128 {
			// Rebase: discard fully-trimmed words at the front.
			w := off >> 6
			copy(s.words, s.words[w:])
			tail := s.words[len(s.words)-int(w):]
			for i := range tail {
				tail[i] = 0
			}
			s.base += off
		}
	}
	idx := seq - s.base
	for idx >= uint64(len(s.words))*64 {
		grow := len(s.words)
		if grow < 4 {
			grow = 4
		}
		s.words = append(s.words, make([]uint64, grow)...)
	}
	return idx >> 6, 1 << (idx & 63)
}

// Add records seq; it returns true if seq was new (not currently held
// and not below the trimmed window).
func (s *Set) Add(seq uint64) bool {
	if s.any && seq < s.low {
		return false // below the window: treated as already seen
	}
	if w, m, in := s.bit(seq); in && s.words[w]&m != 0 {
		return false
	}
	w, m := s.ensure(seq)
	s.words[w] |= m
	s.n++
	if !s.any || seq > s.max {
		s.max = seq
	}
	s.any = true
	return true
}

// Contains reports whether seq is held or below the retained window
// (sequences below Low are assumed delivered/expired).
func (s *Set) Contains(seq uint64) bool {
	if s.any && seq < s.low {
		return true
	}
	w, m, in := s.bit(seq)
	return in && s.words[w]&m != 0
}

// Held reports whether seq is actually retained (servable to a peer).
func (s *Set) Held(seq uint64) bool {
	w, m, in := s.bit(seq)
	return in && s.words[w]&m != 0
}

// Len returns the number of retained sequences.
func (s *Set) Len() int { return s.n }

// Low returns the smallest retained sequence bound.
func (s *Set) Low() uint64 { return s.low }

// High returns the largest sequence ever added (0 if empty).
func (s *Set) High() uint64 {
	if !s.any {
		return 0
	}
	return s.max
}

// Empty reports whether nothing has ever been added.
func (s *Set) Empty() bool { return !s.any }

// TrimBelow drops all sequences < lo, advancing the window. Bullet
// trims items no longer needed for reconstruction so Bloom filter
// population stays bounded.
func (s *Set) TrimBelow(lo uint64) {
	if lo <= s.low {
		return
	}
	if s.any && lo > s.base {
		end := lo - s.base
		if cap := uint64(len(s.words)) * 64; end > cap {
			end = cap
		}
		for w := uint64(0); w < end>>6; w++ {
			s.n -= bits.OnesCount64(s.words[w])
			s.words[w] = 0
		}
		if rem := end & 63; rem != 0 {
			w, m := end>>6, uint64(1)<<rem-1
			s.n -= bits.OnesCount64(s.words[w] & m)
			s.words[w] &^= m
		}
	}
	s.low = lo
}

// ForRange calls fn for every *held* sequence in [lo, hi] in ascending
// order; fn returning false stops iteration.
func (s *Set) ForRange(lo, hi uint64, fn func(seq uint64) bool) {
	if !s.any {
		return
	}
	if lo < s.low {
		lo = s.low
	}
	if lo < s.base {
		lo = s.base
	}
	if hi > s.max {
		hi = s.max
	}
	if lo > hi {
		return
	}
	w := (lo - s.base) >> 6
	cur := s.words[w] &^ (1<<((lo-s.base)&63) - 1)
	last := (hi - s.base) >> 6
	for {
		if w == last {
			cur &= ^uint64(0) >> (63 - (hi-s.base)&63)
		}
		for cur != 0 {
			b := uint64(bits.TrailingZeros64(cur))
			cur &= cur - 1
			if !fn(s.base + w<<6 + b) {
				return
			}
		}
		if w == last {
			return
		}
		w++
		cur = s.words[w]
	}
}

// ForRow calls fn for every held sequence in [lo, hi] of matrix row
// row when the space is split across rows rows (RowOf(seq, rows) ==
// row), in ascending order; fn returning false stops iteration. It
// steps through the row by rows and tests each slot's bit, so it
// costs a 1/rows share of ForRange and no division per held seq.
func (s *Set) ForRow(lo, hi uint64, rows, row int, fn func(seq uint64) bool) {
	if rows <= 1 {
		if row == 0 {
			s.ForRange(lo, hi, fn)
		}
		return
	}
	if !s.any || row < 0 || row >= rows {
		return
	}
	lo = max(lo, s.low, s.base)
	hi = min(hi, s.max)
	if lo > hi {
		return
	}
	step := uint64(rows)
	// Start at the first seq >= lo in the row. The seq >= lo test ends
	// the walk should a step wrap past the top of the sequence space.
	seq := lo + (uint64(row)+step-lo%step)%step
	for ; seq >= lo && seq <= hi; seq += step {
		idx := seq - s.base
		if s.words[idx>>6]&(1<<(idx&63)) != 0 && !fn(seq) {
			return
		}
	}
}

// RowOf returns the matrix row (Figure 4) that sequence seq belongs to
// when the space is split across `senders` rows.
func RowOf(seq uint64, senders int) int {
	if senders <= 0 {
		return 0
	}
	return int(seq % uint64(senders))
}
