// Package codec provides the erasure code for Bullet's file-distribution
// mode (§2.1). The paper's evaluation uses the "null" encoding, where
// each sequence number names a data block directly and nothing needs
// coding; for file distribution it advocates digital-fountain codes.
// This package implements LT codes (Luby, FOCS 2002) with the robust
// soliton degree distribution and a peeling decoder, so any (1+eps)k
// received symbols reconstruct the k source blocks with the small
// reception overhead the paper quotes (~0.05).
package codec

import (
	"fmt"
	"math"
	"math/rand"
)

// LTParams configures the robust soliton distribution.
type LTParams struct {
	// C is the robust soliton constant c (typical 0.03-0.3).
	C float64
	// Delta is the decoder failure probability bound.
	Delta float64
}

// DefaultLTParams gives a good general-purpose operating point.
var DefaultLTParams = LTParams{C: 0.1, Delta: 0.05}

// Symbol is one LT-encoded packet: the XOR of the source blocks chosen
// deterministically from (stream seed, ID).
type Symbol struct {
	ID   uint64
	K    int
	Data []byte
}

// robustSolitonCDF builds the cumulative distribution of symbol degree
// for k source blocks.
func robustSolitonCDF(k int, p LTParams) []float64 {
	if p.C <= 0 {
		p.C = DefaultLTParams.C
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		p.Delta = DefaultLTParams.Delta
	}
	s := p.C * math.Log(float64(k)/p.Delta) * math.Sqrt(float64(k))
	if s < 1 {
		s = 1
	}
	pivot := int(math.Floor(float64(k) / s))
	if pivot < 1 {
		pivot = 1
	}
	if pivot > k {
		pivot = k
	}
	rho := make([]float64, k+1) // 1-indexed degrees
	rho[1] = 1 / float64(k)
	for d := 2; d <= k; d++ {
		rho[d] = 1 / (float64(d) * float64(d-1))
	}
	tau := make([]float64, k+1)
	for d := 1; d < pivot; d++ {
		tau[d] = s / (float64(d) * float64(k))
	}
	tau[pivot] = s * math.Log(s/p.Delta) / float64(k)
	var z float64
	for d := 1; d <= k; d++ {
		z += rho[d] + tau[d]
	}
	cdf := make([]float64, k+1)
	var acc float64
	for d := 1; d <= k; d++ {
		acc += (rho[d] + tau[d]) / z
		cdf[d] = acc
	}
	cdf[k] = 1
	return cdf
}

func sampleDegree(cdf []float64, rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 1, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// neighbors derives the deterministic source-block set for symbol id.
func neighbors(k int, seed int64, id uint64, cdf []float64) []int {
	rng := rand.New(rand.NewSource(seed ^ int64(id*0x9E3779B97F4A7C15+1)))
	d := sampleDegree(cdf, rng)
	if d > k {
		d = k
	}
	chosen := make(map[int]struct{}, d)
	out := make([]int, 0, d)
	for len(out) < d {
		b := rng.Intn(k)
		if _, dup := chosen[b]; !dup {
			chosen[b] = struct{}{}
			out = append(out, b)
		}
	}
	return out
}

// Encoder produces LT symbols for a fixed payload.
type Encoder struct {
	k         int
	blockSize int
	blocks    [][]byte
	seed      int64
	cdf       []float64
}

// NewEncoder splits data into blockSize-byte source blocks (the last
// block zero-padded) and prepares the degree distribution. The seed
// must be shared with decoders.
func NewEncoder(data []byte, blockSize int, seed int64, p LTParams) (*Encoder, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("codec: blockSize %d", blockSize)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("codec: empty payload")
	}
	k := (len(data) + blockSize - 1) / blockSize
	blocks := make([][]byte, k)
	for i := 0; i < k; i++ {
		b := make([]byte, blockSize)
		copy(b, data[i*blockSize:min(len(data), (i+1)*blockSize)])
		blocks[i] = b
	}
	return &Encoder{k: k, blockSize: blockSize, blocks: blocks, seed: seed, cdf: robustSolitonCDF(k, p)}, nil
}

// K returns the number of source blocks.
func (e *Encoder) K() int { return e.k }

// Symbol generates the encoded symbol with the given ID. Symbol
// generation is deterministic and random-access, so different overlay
// nodes can serve disjoint symbol IDs without coordination.
func (e *Encoder) Symbol(id uint64) Symbol {
	data := make([]byte, e.blockSize)
	for _, b := range neighbors(e.k, e.seed, id, e.cdf) {
		xorInto(data, e.blocks[b])
	}
	return Symbol{ID: id, K: e.k, Data: data}
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Decoder reconstructs the payload via belief-propagation peeling.
type Decoder struct {
	k         int
	blockSize int
	seed      int64
	cdf       []float64

	recovered [][]byte
	nRecov    int
	// pending symbols not yet reduced to degree 1, keyed by remaining
	// neighbor count.
	pending []*pendingSym
	// blockWaiters[b] lists pending symbols that still reference b.
	blockWaiters map[int][]*pendingSym
	received     int
}

type pendingSym struct {
	data  []byte
	needs map[int]struct{}
	done  bool
}

// NewDecoder prepares to decode k blocks of blockSize bytes produced
// with the same seed and params.
func NewDecoder(k, blockSize int, seed int64, p LTParams) (*Decoder, error) {
	if k <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("codec: bad decoder params k=%d blockSize=%d", k, blockSize)
	}
	return &Decoder{
		k: k, blockSize: blockSize, seed: seed,
		cdf:          robustSolitonCDF(k, p),
		recovered:    make([][]byte, k),
		blockWaiters: make(map[int][]*pendingSym),
	}, nil
}

// Received returns how many symbols have been added.
func (d *Decoder) Received() int { return d.received }

// Done reports whether all source blocks are recovered.
func (d *Decoder) Done() bool { return d.nRecov == d.k }

// Add ingests one symbol and runs peeling; it returns Done().
func (d *Decoder) Add(sym Symbol) bool {
	if d.Done() {
		return true
	}
	d.received++
	data := make([]byte, d.blockSize)
	copy(data, sym.Data)
	needs := make(map[int]struct{})
	for _, b := range neighbors(d.k, d.seed, sym.ID, d.cdf) {
		if d.recovered[b] != nil {
			xorInto(data, d.recovered[b])
		} else {
			needs[b] = struct{}{}
		}
	}
	ps := &pendingSym{data: data, needs: needs}
	if len(needs) == 0 {
		return d.Done() // pure redundancy
	}
	if len(needs) == 1 {
		d.resolve(ps)
		return d.Done()
	}
	d.pending = append(d.pending, ps)
	for b := range needs {
		d.blockWaiters[b] = append(d.blockWaiters[b], ps)
	}
	return d.Done()
}

// resolve recovers the single remaining block of ps and propagates.
func (d *Decoder) resolve(ps *pendingSym) {
	queue := []*pendingSym{ps}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.done || len(cur.needs) != 1 {
			continue
		}
		var b int
		for k := range cur.needs {
			b = k
		}
		cur.done = true
		if d.recovered[b] != nil {
			continue
		}
		d.recovered[b] = cur.data
		d.nRecov++
		for _, w := range d.blockWaiters[b] {
			if w.done {
				continue
			}
			if _, ok := w.needs[b]; ok {
				xorInto(w.data, d.recovered[b])
				delete(w.needs, b)
				if len(w.needs) == 1 {
					queue = append(queue, w)
				}
			}
		}
		delete(d.blockWaiters, b)
	}
}

// Payload returns the reconstructed data (length k*blockSize; the
// caller trims any padding) and whether decoding is complete.
func (d *Decoder) Payload() ([]byte, bool) {
	if !d.Done() {
		return nil, false
	}
	out := make([]byte, 0, d.k*d.blockSize)
	for _, b := range d.recovered {
		out = append(out, b...)
	}
	return out, true
}
