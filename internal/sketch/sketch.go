// Package sketch implements min-wise summary tickets (§2.3, Broder's
// min-wise sketches): small fixed-size unbiased random samples of a
// node's working set. Each entry is maintained by a linear permutation
// P_j(x) = (a_j*x + b_j) mod U and holds the minimum permuted value
// seen. The resemblance of two working sets is estimated by the
// fraction of equal entries, which Bullet uses to pick the peer with
// the *lowest* similarity (most disjoint content).
package sketch

import "math/rand"

// DefaultEntries gives the paper's 120-byte summary ticket with
// 4-byte entries.
const DefaultEntries = 30

// Universe is the modulus U of the permutation functions. A Mersenne
// prime keeps (a*x+b) mod U well distributed for 64-bit x.
const Universe = (1 << 31) - 1

// Permutations is a shared family of permutation functions. All nodes
// in a run must use the same family for tickets to be comparable.
type Permutations struct {
	a, b []uint64
}

// NewPermutations creates k permutation functions from the seed.
func NewPermutations(k int, seed int64) *Permutations {
	rng := rand.New(rand.NewSource(seed))
	p := &Permutations{a: make([]uint64, k), b: make([]uint64, k)}
	for i := 0; i < k; i++ {
		p.a[i] = uint64(rng.Int63n(Universe-1)) + 1 // a != 0
		p.b[i] = uint64(rng.Int63n(Universe))
	}
	return p
}

// K returns the number of permutation functions (ticket entries).
func (p *Permutations) K() int { return len(p.a) }

// empty is the sentinel for an unpopulated entry.
const empty = uint32(0xFFFFFFFF)

// Ticket is a summary ticket: one minimum per permutation function.
type Ticket struct {
	perms *Permutations
	vals  []uint32
}

// NewTicket creates an empty ticket over the permutation family.
func NewTicket(p *Permutations) *Ticket {
	t := &Ticket{perms: p, vals: make([]uint32, p.K())}
	for i := range t.vals {
		t.vals[i] = empty
	}
	return t
}

// Add inserts element x, updating each entry with the smaller permuted
// value.
func (t *Ticket) Add(x uint64) {
	for j := range t.vals {
		v := uint32((t.perms.a[j]*(x%Universe) + t.perms.b[j]) % Universe)
		if v < t.vals[j] {
			t.vals[j] = v
		}
	}
}

// Reset empties the ticket (Bullet rebuilds tickets as the working-set
// window slides).
func (t *Ticket) Reset() {
	for i := range t.vals {
		t.vals[i] = empty
	}
}

// Clone returns an independent copy, e.g. for shipping in a RanSub set.
func (t *Ticket) Clone() *Ticket {
	c := &Ticket{perms: t.perms, vals: make([]uint32, len(t.vals))}
	copy(c.vals, t.vals)
	return c
}

// Resemblance estimates the Jaccard similarity of the underlying sets:
// the number of equal entries divided by the number of entries. Both
// tickets must come from the same permutation family.
func Resemblance(a, b *Ticket) float64 {
	if len(a.vals) != len(b.vals) {
		return 0
	}
	eq := 0
	populated := 0
	for i := range a.vals {
		if a.vals[i] == empty && b.vals[i] == empty {
			continue
		}
		populated++
		if a.vals[i] == b.vals[i] {
			eq++
		}
	}
	if populated == 0 {
		return 1 // two empty sets are identical
	}
	return float64(eq) / float64(populated)
}
