package sketch

import (
	"math/rand"
	"slices"
	"testing"
)

func TestModUMatchesMod(t *testing.T) {
	const U = uint64(Universe)
	for _, y := range []uint64{0, 1, U - 1, U, U + 1, 2*U - 1, 2 * U, 2*U + 1, 1 << 31, 1 << 62, 1<<62 - 1, 1 << 63, ^uint64(0) - U, ^uint64(0)} {
		if got, want := modU(y), y%U; got != want {
			t.Errorf("modU(%d) = %d, want %d", y, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000_000; i++ {
		y := rng.Uint64()
		if i&1 == 1 {
			y >>= uint(rng.Intn(64)) // small values too, not only full-width ones
		}
		if got, want := modU(y), y%U; got != want {
			t.Fatalf("modU(%d) = %d, want %d", y, got, want)
		}
	}
}

// maxScript bounds a fuzzed script, so a window never advances more
// than 2^20 past its base.
const maxScript = 4096

// checkTicketScript drives a ticket through a script of window
// operations, two bytes an op, and after every slide holds it to a
// Reset and Add over the same survivors. Ops (first byte mod 4):
//   - 0, 1: add the next ascending seq after skipping arg%4 of them;
//   - 2: add a seq not yet held from anywhere in [low, next);
//   - 3: advance low by arg%64 (not past next), trim, Expire, Refill.
func checkTicketScript(t *testing.T, seed int64, base uint64, script []byte) {
	if len(script) > maxScript {
		script = script[:maxScript]
	}
	base = min(base, ^uint64(0)-1<<20)
	p := NewPermutations(DefaultEntries, seed)
	tk, ref := NewTicket(p), NewTicket(p)
	held := map[uint64]bool{}
	add := func(s uint64) {
		held[s] = true
		tk.Add(s)
	}
	low, next := base, base
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%4, uint64(script[i+1])
		switch op {
		case 0, 1:
			next += arg % 4
			add(next)
			next++
		case 2:
			if s := low + arg%max(next-low, 1); s < next && !held[s] {
				add(s)
			}
		case 3:
			low = min(low+arg%64, next)
			var survivors []uint64
			for s := range held {
				if s < low {
					delete(held, s)
				} else {
					survivors = append(survivors, s)
				}
			}
			slices.Sort(survivors)
			tk.Expire(low)
			ref.Reset()
			for _, s := range survivors {
				tk.Refill(s)
				ref.Add(s)
			}
			if !slices.Equal(tk.vals, ref.vals) {
				t.Fatalf("op %d: slide to low %d (%d survivors): incremental %v, rebuilt %v",
					i/2, low, len(survivors), tk.vals, ref.vals)
			}
			for j, v := range tk.vals {
				if v == empty {
					continue
				}
				if f := tk.from[j]; !held[f] || uint32(modU(p.a[j]*modU(f)+p.b[j])) != v {
					t.Fatalf("op %d: entry %d holds %d from %d, which is not a survivor's value", i/2, j, v, f)
				}
			}
		}
	}
}

// Expire and Refill over the survivors of a slide equal a rebuild
// from scratch, for any interleaving of in-order adds with holes,
// out-of-order adds within the window, and slides.
func FuzzTicketExpireMatchesRebuild(f *testing.F) {
	f.Add(int64(1), uint64(0), []byte{0, 0, 0, 3, 1, 1, 2, 5, 3, 2, 0, 0, 2, 0, 3, 9})
	f.Add(int64(2), uint64(Universe-40), []byte{0, 1, 0, 2, 0, 3, 0, 0, 3, 7, 2, 9, 0, 1, 3, 63, 0, 0, 3, 1})
	f.Fuzz(checkTicketScript)
}

func BenchmarkTicketAdd(b *testing.B) {
	tk := NewTicket(NewPermutations(DefaultEntries, 1))
	for i := 0; i < b.N; i++ {
		tk.Add(uint64(i))
	}
}

// BenchmarkTicketSlide times one slide of a 2,000-seq window by 250
// seqs, Bullet's recovery window at about its refresh step: the
// incremental Expire and Refill against the Reset and Add rebuild it
// replaces. The 250 new seqs are added outside the timer.
func BenchmarkTicketSlide(b *testing.B) {
	const window, step = 2000, 250
	for _, bc := range []struct {
		name  string
		slide func(tk *Ticket, low, hi uint64)
	}{
		{"expire-refill", func(tk *Ticket, low, hi uint64) {
			tk.Expire(low)
			for s := low; s < hi; s++ {
				tk.Refill(s)
			}
		}},
		{"reset-add", func(tk *Ticket, low, hi uint64) {
			tk.Reset()
			for s := low; s < hi; s++ {
				tk.Add(s)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tk := NewTicket(NewPermutations(DefaultEntries, 1))
			hi := uint64(window)
			for s := uint64(0); s < hi; s++ {
				tk.Add(s)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for s := hi; s < hi+step; s++ {
					tk.Add(s)
				}
				hi += step
				b.StartTimer()
				bc.slide(tk, hi-window, hi)
			}
		})
	}
}
