package workset

import (
	"math/rand"
	"slices"
	"testing"
)

// rowTestSets returns sets whose base, low and max sit at different
// offsets from word boundaries: holes, a trim to a non-word-aligned
// low, a rebase after a long slide, an out-of-order add below the
// anchor, a single element and an empty set.
func rowTestSets() map[string]*Set {
	rng := rand.New(rand.NewSource(3))
	holes := New()
	for s := uint64(1000); s < 3000; s++ {
		if rng.Intn(10) < 7 {
			holes.Add(s)
		}
	}
	holes.TrimBelow(1130)

	rebased := New()
	for s := uint64(0); s < 10_000; s++ {
		rebased.Add(s)
		if s%500 == 0 && s > 2000 {
			rebased.TrimBelow(s - 2000)
		}
	}

	prepended := New()
	for s := uint64(700); s < 900; s += 3 {
		prepended.Add(s)
	}
	prepended.Add(500)

	single := New()
	single.Add(77)

	return map[string]*Set{"holes": holes, "rebased": rebased, "prepended": prepended, "single": single, "empty": New()}
}

func TestForRowMatchesFilteredForRange(t *testing.T) {
	for name, s := range rowTestSets() {
		var bounds []uint64
		for _, b := range []uint64{0, s.low, s.base, s.max, s.base + 63, s.base + 64, s.base + 128, s.max &^ 63} {
			bounds = append(bounds, b-1, b, b+1)
		}
		bounds = append(bounds, ^uint64(0))
		for _, lo := range bounds {
			for _, hi := range bounds {
				var all []uint64
				s.ForRange(lo, hi, func(seq uint64) bool { all = append(all, seq); return true })
				for rows := 0; rows <= 12; rows++ {
					for row := -1; row <= rows; row++ {
						var want []uint64
						for _, seq := range all {
							if RowOf(seq, rows) == row {
								want = append(want, seq)
							}
						}
						var got []uint64
						s.ForRow(lo, hi, rows, row, func(seq uint64) bool { got = append(got, seq); return true })
						if !slices.Equal(got, want) {
							t.Fatalf("%s: ForRow(%d, %d, %d, %d) = %v, want %v", name, lo, hi, rows, row, got, want)
						}
						if len(want) == 0 {
							continue
						}
						stop := len(want)/2 + 1
						got = got[:0]
						s.ForRow(lo, hi, rows, row, func(seq uint64) bool { got = append(got, seq); return len(got) < stop })
						if !slices.Equal(got, want[:stop]) {
							t.Fatalf("%s: ForRow(%d, %d, %d, %d) stopping after %d visited %v", name, lo, hi, rows, row, stop, got)
						}
					}
				}
			}
		}
	}
}

// BenchmarkForRow visits one row of a 2,000-seq window split across
// ten rows, Bullet's recovery window at its sender-list size: the row
// walk against the filtered full scan it replaces.
func BenchmarkForRow(b *testing.B) {
	const window, rows, row = 2000, 10, 3
	rng := rand.New(rand.NewSource(1))
	s := New()
	for seq := uint64(0); seq < 2*window; seq++ {
		if rng.Intn(10) != 0 {
			s.Add(seq)
		}
	}
	s.TrimBelow(window)
	var visited int
	count := func(uint64) bool { visited++; return true }
	b.Run("forrow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ForRow(s.Low(), s.High(), rows, row, count)
		}
	})
	b.Run("forrange-rowof", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ForRange(s.Low(), s.High(), func(seq uint64) bool {
				if RowOf(seq, rows) == row {
					visited++
				}
				return true
			})
		}
	})
}
