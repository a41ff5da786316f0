// Package bloom implements the Bloom filters Bullet uses for
// approximate reconciliation (§2.3): a receiver summarizes the packets
// it already has in a Bloom filter and installs it at sending peers,
// which then forward only packets not described by the filter. False
// positives mean a missing packet may not be sent (recoverable from
// another peer); false negatives never occur, so described packets are
// never resent.
package bloom

import "math"

// Filter is a fixed-size Bloom filter over uint64 keys with k
// independent hash functions (Kirsch-Mitzenmacher double hashing).
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int
}

// New creates a filter with m bits and k hash functions. m is rounded
// up to a multiple of 64.
func New(m int, k int) *Filter {
	if m < 64 {
		m = 64
	}
	if k < 1 {
		k = 1
	}
	words := (m + 63) / 64
	return &Filter{bits: make([]uint64, words), m: uint64(words * 64), k: k}
}

// NewForCapacity sizes a filter for n expected elements and target
// false-positive rate fp, using the standard m = -n ln(fp)/ln(2)^2 and
// k = (m/n) ln 2 formulas.
func NewForCapacity(n int, fp float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := int(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return New(m, k)
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

func (f *Filter) hashes(key uint64) (h1, h2 uint64) {
	h1 = mix(key)
	h2 = mix(key ^ 0x9E3779B97F4A7C15)
	h2 |= 1 // ensure odd so probes cover the table
	return
}

// Add inserts key into the filter.
func (f *Filter) Add(key uint64) {
	h1, h2 := f.hashes(key)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// Contains reports whether key may be in the set. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key uint64) bool {
	h1, h2 := f.hashes(key)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter. Bullet rebuilds filters over the current
// working-set window rather than letting n grow without bound.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
}

// SizeBytes returns the wire size of the filter.
func (f *Filter) SizeBytes() int { return len(f.bits)*8 + 8 }

// Clone returns an independent copy (used when shipping a snapshot to
// a peer).
func (f *Filter) Clone() *Filter {
	c := &Filter{bits: make([]uint64, len(f.bits)), m: f.m, k: f.k}
	copy(c.bits, f.bits)
	return c
}
