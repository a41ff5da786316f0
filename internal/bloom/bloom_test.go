package bloom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(4096, 4)
	for i := uint64(0); i < 200; i++ {
		f.Add(i * 7)
	}
	for i := uint64(0); i < 200; i++ {
		if !f.Contains(i * 7) {
			t.Fatalf("false negative for %d", i*7)
		}
	}
}

func TestFalsePositiveRateNearPrediction(t *testing.T) {
	n := 1000
	f := NewForCapacity(n, 0.01)
	for i := 0; i < n; i++ {
		f.Add(uint64(i))
	}
	fp := 0
	probes := 20000
	for i := 0; i < probes; i++ {
		if f.Contains(uint64(1_000_000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 0.03 {
		t.Fatalf("observed FP rate %.4f far above target 0.01", rate)
	}
	est := estimatedFPRate(f, n)
	if est <= 0 || est > 0.05 {
		t.Fatalf("estimated FP rate %.4f implausible", est)
	}
}

// estimatedFPRate is (1 - e^{-kn/m})^k for a filter holding n keys,
// the formula quoted in §2.3.
func estimatedFPRate(f *Filter, n int) float64 {
	return math.Pow(1-math.Exp(-float64(f.k)*float64(n)/float64(f.m)), float64(f.k))
}

func TestReset(t *testing.T) {
	f := New(1024, 3)
	f.Add(42)
	f.Reset()
	if f.Contains(42) {
		t.Fatal("contains after reset")
	}
	for i, w := range f.bits {
		if w != 0 {
			t.Fatalf("word %d = %#x after reset", i, w)
		}
	}
}

func TestClone(t *testing.T) {
	f := New(1024, 3)
	f.Add(1)
	c := f.Clone()
	c.Add(2)
	if f.Contains(2) {
		t.Fatal("clone shares storage with original")
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("clone missing elements")
	}
}

func TestNewForCapacitySizing(t *testing.T) {
	f := NewForCapacity(1000, 0.01)
	// Standard sizing: ~9.6 bits/element, ~7 hashes.
	if f.m < 9000 || f.m > 11000 {
		t.Fatalf("m=%d for n=1000 fp=1%%", f.m)
	}
	if f.k < 5 || f.k > 9 {
		t.Fatalf("k=%d", f.k)
	}
	// Degenerate inputs fall back to sane defaults.
	g := NewForCapacity(0, -1)
	if g.m < 64 || g.k < 1 {
		t.Fatalf("degenerate sizing m=%d k=%d", g.m, g.k)
	}
}

func TestSizeBytes(t *testing.T) {
	f := New(1024, 4)
	if f.SizeBytes() != 1024/8+8 {
		t.Fatalf("SizeBytes=%d", f.SizeBytes())
	}
}

// Property: anything added is always found (no false negatives), for
// arbitrary key sets and filter shapes.
func TestNoFalseNegativesProperty(t *testing.T) {
	f := func(keys []uint64, mRaw, kRaw uint8) bool {
		m := 64 + int(mRaw)*8
		k := 1 + int(kRaw)%8
		fl := New(m, k)
		for _, key := range keys {
			fl.Add(key)
		}
		for _, key := range keys {
			if !fl.Contains(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}
