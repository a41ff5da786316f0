package workset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddContains(t *testing.T) {
	s := New()
	if !s.Add(5) {
		t.Fatal("first add returned false")
	}
	if s.Add(5) {
		t.Fatal("duplicate add returned true")
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Fatal("contains wrong")
	}
	if s.Len() != 1 || s.Total() != 1 {
		t.Fatalf("len=%d total=%d", s.Len(), s.Total())
	}
}

func TestHighLow(t *testing.T) {
	s := New()
	s.Add(10)
	s.Add(3)
	s.Add(7)
	if s.High() != 10 {
		t.Fatalf("high=%d", s.High())
	}
	if s.Low() != 0 {
		t.Fatalf("low=%d", s.Low())
	}
	s.TrimBelow(5)
	if s.Low() != 5 {
		t.Fatalf("low after trim=%d", s.Low())
	}
	if s.Held(3) {
		t.Fatal("trimmed seq still held")
	}
	if !s.Contains(3) {
		t.Fatal("below-window seq should count as seen")
	}
	if s.Add(2) {
		t.Fatal("add below window succeeded")
	}
}

func TestForRangeOrdered(t *testing.T) {
	s := New()
	for _, v := range []uint64{9, 2, 4, 8, 3} {
		s.Add(v)
	}
	var got []uint64
	s.ForRange(0, 100, func(seq uint64) bool {
		got = append(got, seq)
		return true
	})
	want := []uint64{2, 3, 4, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestForRangeEarlyStop(t *testing.T) {
	s := New()
	for i := uint64(0); i < 10; i++ {
		s.Add(i)
	}
	n := 0
	s.ForRange(0, 9, func(uint64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop failed: n=%d", n)
	}
}

func TestRowOf(t *testing.T) {
	if RowOf(17, 5) != 2 {
		t.Fatalf("RowOf(17,5)=%d", RowOf(17, 5))
	}
	if RowOf(17, 0) != 0 {
		t.Fatal("RowOf with zero senders should be 0")
	}
}

// Property: every sequence belongs to exactly one row, and the rows
// partition any contiguous range evenly (within one).
func TestRowPartitionProperty(t *testing.T) {
	f := func(senders uint8, span uint8) bool {
		s := int(senders%10) + 1
		n := int(span) + s
		counts := make([]int, s)
		for seq := 0; seq < n; seq++ {
			counts[RowOf(uint64(seq), s)]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add/Contains behaves like a set over the untrimmed window.
func TestSetSemanticsProperty(t *testing.T) {
	f := func(xs []uint16) bool {
		s := New()
		ref := make(map[uint64]bool)
		for _, x := range xs {
			v := uint64(x)
			added := s.Add(v)
			if added == ref[v] {
				return false // Add must return true exactly when new
			}
			ref[v] = true
		}
		for v := range ref {
			if !s.Contains(v) {
				return false
			}
		}
		return s.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySet(t *testing.T) {
	s := New()
	if !s.Empty() || s.High() != 0 || s.Contains(0) {
		t.Fatal("empty set misbehaves")
	}
}
