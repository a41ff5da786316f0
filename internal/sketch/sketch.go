// Package sketch implements min-wise summary tickets (§2.3, Broder's
// min-wise sketches): small fixed-size unbiased random samples of a
// node's working set. Each entry is maintained by a linear permutation
// P_j(x) = (a_j*x + b_j) mod U and holds the minimum permuted value
// seen. The resemblance of two working sets is estimated by the
// fraction of equal entries, which Bullet uses to pick the peer with
// the *lowest* similarity (most disjoint content).
//
// A ticket follows a sliding window incrementally. Each entry records
// the element its minimum came from, so when the window's lower bound
// advances, Expire empties only the entries whose minimum fell out of
// the window and Refill recomputes just those over the survivors. The
// result equals a Reset followed by an Add of every survivor: an entry
// whose minimum came from a survivor already holds the survivors'
// minimum (the survivors are a subset of what was added), and every
// other entry is rebuilt from the survivors alone.
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

// modU returns y mod Universe. Universe is the Mersenne prime 2^31-1,
// so 2^31 ≡ 1 and y folds to (y & U) + (y >> 31) without a division.
// Two folds bring any 64-bit y below 2U, and one conditional subtract
// finishes the reduction.
func modU(y uint64) uint64 {
	y = y&Universe + y>>31
	y = y&Universe + y>>31
	if y >= Universe {
		y -= Universe
	}
	return y
}

// Ticket is a summary ticket: one minimum per permutation function,
// and for each the element it came from.
type Ticket struct {
	perms *Permutations
	vals  []uint32
	from  []uint64 // from[j] is the element whose permuted value is vals[j]
	stale []int    // entries the last Expire emptied, for Refill
}

// NewTicket creates an empty ticket over the permutation family.
func NewTicket(p *Permutations) *Ticket {
	k := p.K()
	t := &Ticket{perms: p, vals: make([]uint32, k), from: make([]uint64, k), stale: make([]int, 0, k)}
	for i := range t.vals {
		t.vals[i] = empty
	}
	return t
}

// Add inserts element x, updating each entry with the smaller permuted
// value.
func (t *Ticket) Add(x uint64) {
	xm := modU(x)
	a, b := t.perms.a[:len(t.vals)], t.perms.b[:len(t.vals)]
	from := t.from[:len(t.vals)]
	for j := range t.vals {
		v := uint32(modU(a[j]*xm + b[j]))
		if v < t.vals[j] {
			t.vals[j] = v
			from[j] = x
		}
	}
}

// Reset empties the ticket.
func (t *Ticket) Reset() {
	for i := range t.vals {
		t.vals[i] = empty
	}
	t.stale = t.stale[:0]
}

// Expire empties every entry whose minimum came from an element below
// low, as when a window's lower bound advances to low. Refilling those
// entries with Refill over the elements at or above low that were
// added since the last Reset leaves the ticket equal to a Reset and an
// Add of each of them.
func (t *Ticket) Expire(low uint64) {
	t.stale = t.stale[:0]
	for j, v := range t.vals {
		if v != empty && t.from[j] < low {
			t.vals[j] = empty
			t.stale = append(t.stale, j)
		}
	}
}

// Refill offers survivor x to the entries the last Expire emptied, and
// to no other entry.
func (t *Ticket) Refill(x uint64) {
	xm := modU(x)
	for _, j := range t.stale {
		v := uint32(modU(t.perms.a[j]*xm + t.perms.b[j]))
		if v < t.vals[j] {
			t.vals[j] = v
			t.from[j] = x
		}
	}
}

// Clone returns an independent copy of the minima, e.g. for shipping
// in a RanSub set. The copy is a read-only snapshot for Resemblance:
// it does not carry the elements the minima came from, so it cannot
// be added to, expired or refilled.
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
