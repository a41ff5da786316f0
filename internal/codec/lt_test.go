package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLTRoundTrip(t *testing.T) {
	data := make([]byte, 100*1000)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	enc, err := NewEncoder(data, 1000, 42, DefaultLTParams)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(enc.K(), 1000, 42, DefaultLTParams)
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	for !dec.Done() {
		dec.Add(enc.Symbol(id))
		id++
		if id > uint64(enc.K()*3) {
			t.Fatalf("decoder needed more than 3k symbols (k=%d)", enc.K())
		}
	}
	got, ok := dec.Payload()
	if !ok {
		t.Fatal("payload not ready")
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("decoded payload differs")
	}
}

func TestLTReceptionOverhead(t *testing.T) {
	// The paper quotes reception overhead ~0.05 for LT codes. Allow a
	// generous bound for moderate k.
	data := make([]byte, 1000*100)
	rand.New(rand.NewSource(2)).Read(data)
	enc, _ := NewEncoder(data, 100, 7, DefaultLTParams)
	k := enc.K() // 1000
	dec, _ := NewDecoder(k, 100, 7, DefaultLTParams)
	var id uint64
	for !dec.Done() {
		dec.Add(enc.Symbol(id))
		id++
	}
	overhead := float64(dec.Received()-k) / float64(k)
	if overhead > 0.35 {
		t.Fatalf("reception overhead %.3f too high for k=%d", overhead, k)
	}
}

func TestLTRandomAccessSymbols(t *testing.T) {
	// Decoding from an arbitrary, non-contiguous symbol ID set must
	// work: this is what lets Bullet peers serve disjoint symbols.
	data := make([]byte, 50*64)
	rand.New(rand.NewSource(3)).Read(data)
	enc, _ := NewEncoder(data, 64, 9, DefaultLTParams)
	dec, _ := NewDecoder(enc.K(), 64, 9, DefaultLTParams)
	rng := rand.New(rand.NewSource(4))
	for !dec.Done() {
		dec.Add(enc.Symbol(uint64(rng.Intn(1 << 20))))
		if dec.Received() > enc.K()*10 {
			t.Fatal("random-access decode did not converge")
		}
	}
	got, _ := dec.Payload()
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatal("decoded payload differs")
	}
}

func TestLTSymbolDeterminism(t *testing.T) {
	data := make([]byte, 10*32)
	rand.New(rand.NewSource(5)).Read(data)
	e1, _ := NewEncoder(data, 32, 11, DefaultLTParams)
	e2, _ := NewEncoder(data, 32, 11, DefaultLTParams)
	for id := uint64(0); id < 50; id++ {
		if !bytes.Equal(e1.Symbol(id).Data, e2.Symbol(id).Data) {
			t.Fatalf("symbol %d differs between identical encoders", id)
		}
	}
}

func TestLTDuplicatesHarmless(t *testing.T) {
	data := make([]byte, 20*16)
	rand.New(rand.NewSource(6)).Read(data)
	enc, _ := NewEncoder(data, 16, 13, DefaultLTParams)
	dec, _ := NewDecoder(enc.K(), 16, 13, DefaultLTParams)
	var id uint64
	for !dec.Done() {
		dec.Add(enc.Symbol(id % 40)) // heavy duplication
		id++
		if id > 10000 {
			// With only 40 distinct symbols decode may be impossible;
			// that is fine — just stop.
			break
		}
	}
	if dec.Done() {
		got, _ := dec.Payload()
		if !bytes.Equal(got[:len(data)], data) {
			t.Fatal("decode with duplicates wrong")
		}
	}
}

func TestLTErrors(t *testing.T) {
	if _, err := NewEncoder(nil, 10, 1, DefaultLTParams); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := NewEncoder([]byte{1}, 0, 1, DefaultLTParams); err == nil {
		t.Fatal("zero block size accepted")
	}
	if _, err := NewDecoder(0, 10, 1, DefaultLTParams); err == nil {
		t.Fatal("zero k accepted")
	}
}

func TestRobustSolitonCDF(t *testing.T) {
	cdf := robustSolitonCDF(100, DefaultLTParams)
	if cdf[len(cdf)-1] != 1 {
		t.Fatalf("CDF does not end at 1: %v", cdf[len(cdf)-1])
	}
	for i := 2; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-12 {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	// Degree-1 probability must be positive (decoding must bootstrap)
	// and small-ish.
	if cdf[1] <= 0 || cdf[1] > 0.3 {
		t.Fatalf("degree-1 mass %v implausible", cdf[1])
	}
}

// Property: round trip succeeds for arbitrary payloads.
func TestLTRoundTripProperty(t *testing.T) {
	f := func(payload []byte, bsRaw uint8) bool {
		if len(payload) == 0 {
			return true
		}
		bs := int(bsRaw)%32 + 8
		enc, err := NewEncoder(payload, bs, 21, DefaultLTParams)
		if err != nil {
			return false
		}
		dec, _ := NewDecoder(enc.K(), bs, 21, DefaultLTParams)
		for id := uint64(0); !dec.Done(); id++ {
			dec.Add(enc.Symbol(id))
			if id > uint64(enc.K()*20+100) {
				return false
			}
		}
		got, ok := dec.Payload()
		return ok && bytes.Equal(got[:len(payload)], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
