package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResemblanceIdentical(t *testing.T) {
	p := NewPermutations(DefaultEntries, 1)
	a, b := NewTicket(p), NewTicket(p)
	for i := uint64(0); i < 500; i++ {
		a.Add(i)
		b.Add(i)
	}
	if r := Resemblance(a, b); r != 1 {
		t.Fatalf("identical sets resemblance %v", r)
	}
}

func TestResemblanceDisjoint(t *testing.T) {
	p := NewPermutations(DefaultEntries, 2)
	a, b := NewTicket(p), NewTicket(p)
	for i := uint64(0); i < 500; i++ {
		a.Add(i)
		b.Add(i + 1_000_000)
	}
	if r := Resemblance(a, b); r > 0.2 {
		t.Fatalf("disjoint sets resemblance %v", r)
	}
}

func TestResemblanceEstimatesJaccard(t *testing.T) {
	// Sets with known Jaccard similarity 1/3: A=[0,1000), B=[500,1500).
	// Use more entries for tighter estimation.
	p := NewPermutations(120, 3)
	a, b := NewTicket(p), NewTicket(p)
	for i := uint64(0); i < 1000; i++ {
		a.Add(i)
		b.Add(i + 500)
	}
	r := Resemblance(a, b)
	if math.Abs(r-1.0/3) > 0.15 {
		t.Fatalf("resemblance %v, want ~0.333", r)
	}
}

func TestResemblanceSymmetric(t *testing.T) {
	p := NewPermutations(DefaultEntries, 4)
	f := func(xs, ys []uint16) bool {
		a, b := NewTicket(p), NewTicket(p)
		for _, x := range xs {
			a.Add(uint64(x))
		}
		for _, y := range ys {
			b.Add(uint64(y))
		}
		r1, r2 := Resemblance(a, b), Resemblance(b, a)
		return r1 == r2 && r1 >= 0 && r1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTickets(t *testing.T) {
	p := NewPermutations(DefaultEntries, 5)
	a, b := NewTicket(p), NewTicket(p)
	if !isEmpty(a) {
		t.Fatal("new ticket not empty")
	}
	if r := Resemblance(a, b); r != 1 {
		t.Fatalf("two empty tickets resemblance %v, want 1", r)
	}
	a.Add(7)
	if isEmpty(a) {
		t.Fatal("ticket empty after add")
	}
	if r := Resemblance(a, b); r != 0 {
		t.Fatalf("empty vs non-empty resemblance %v, want 0", r)
	}
}

func TestReset(t *testing.T) {
	p := NewPermutations(DefaultEntries, 6)
	a := NewTicket(p)
	a.Add(1)
	a.Reset()
	if !isEmpty(a) {
		t.Fatal("not empty after reset")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewPermutations(DefaultEntries, 7)
	a := NewTicket(p)
	a.Add(1)
	c := a.Clone()
	a.Add(2)
	if Resemblance(a, c) == 1 && a.vals[0] != c.vals[0] {
		t.Fatal("clone inconsistent")
	}
	// Adding to the original must not affect the clone's storage.
	c2 := a.Clone()
	before := make([]uint32, len(c2.vals))
	copy(before, c2.vals)
	a.Add(99999)
	for i := range before {
		if c2.vals[i] != before[i] {
			t.Fatal("clone shares storage")
		}
	}
}

func TestDefaultTicketWireSize(t *testing.T) {
	p := NewPermutations(DefaultEntries, 8)
	tk := NewTicket(p)
	if size := len(tk.vals) * 4; size != 120 {
		t.Fatalf("default ticket is %d bytes, paper says 120", size)
	}
}

func TestAddOrderIrrelevant(t *testing.T) {
	p := NewPermutations(DefaultEntries, 9)
	a, b := NewTicket(p), NewTicket(p)
	xs := []uint64{5, 17, 99, 3, 12000, 7}
	for _, x := range xs {
		a.Add(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		b.Add(xs[i])
	}
	if Resemblance(a, b) != 1 {
		t.Fatal("ticket depends on insertion order")
	}
}

// isEmpty reports whether no element has been added.
func isEmpty(t *Ticket) bool {
	for _, v := range t.vals {
		if v != empty {
			return false
		}
	}
	return true
}
