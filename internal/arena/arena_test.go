package arena

import (
	"testing"
	"unsafe"
)

type widget struct {
	id   int
	data []byte
}

func TestZeroValueUsable(t *testing.T) {
	var a Arena[int]
	p := a.Get()
	if p == nil || *p != 0 {
		t.Fatalf("Get from zero arena = %v, want pointer to 0", p)
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
}

func TestPutZeroesAndReusesLIFO(t *testing.T) {
	var a Arena[widget]
	p1 := a.Get()
	p2 := a.Get()
	p1.id, p1.data = 7, []byte{1, 2, 3}
	p2.id = 9
	a.Put(p1)
	a.Put(p2)
	// LIFO: the most recently retired value comes back first.
	if got := a.Get(); got != p2 {
		t.Fatalf("Get after Put(p1), Put(p2) = %p, want p2 %p", got, p2)
	}
	if got := a.Get(); got != p1 {
		t.Fatalf("second Get = %p, want p1 %p", got, p1)
	}
	// Put zeroed the values, dropping payload references.
	if p1.id != 0 || p1.data != nil {
		t.Fatalf("recycled value not zeroed: %+v", *p1)
	}
}

func TestChunkGrowthAndStability(t *testing.T) {
	var a Arena[widget]
	ptrs := make([]*widget, 0, 3*chunkSize)
	for i := 0; i < 3*chunkSize; i++ {
		p := a.Get()
		p.id = i
		ptrs = append(ptrs, p)
	}
	if a.Allocated() != 3*chunkSize {
		t.Fatalf("Allocated = %d, want %d", a.Allocated(), 3*chunkSize)
	}
	// Pointers remain stable and distinct across chunk growth.
	for i, p := range ptrs {
		if p.id != i {
			t.Fatalf("ptrs[%d].id = %d: pointer moved or aliased", i, p.id)
		}
	}
	if a.Live() != 3*chunkSize {
		t.Fatalf("Live = %d, want %d", a.Live(), 3*chunkSize)
	}
	for _, p := range ptrs {
		a.Put(p)
	}
	if a.Live() != 0 {
		t.Fatalf("Live after freeing all = %d, want 0", a.Live())
	}
	// Churn within the freed set allocates no new chunks.
	for i := 0; i < 10*chunkSize; i++ {
		a.Put(a.Get())
	}
	if a.Allocated() != 3*chunkSize {
		t.Fatalf("churn grew the arena: Allocated = %d, want %d", a.Allocated(), 3*chunkSize)
	}
}

// TestSteadyChurnAllocatesNothing cycles 512 values out and back — the
// issue/retire rhythm of packet delivery — and holds every lap after
// the first to zero heap allocations: each Get is served from the free
// list, and the free list's backing array has reached its size.
func TestSteadyChurnAllocatesNothing(t *testing.T) {
	var a Arena[[64]byte]
	buf := make([]*[64]byte, 512)
	lap := func() {
		for i := range buf {
			buf[i] = a.Get()
		}
		for _, p := range buf {
			a.Put(p)
		}
	}
	lap()
	if avg := testing.AllocsPerRun(20, lap); avg != 0 {
		t.Fatalf("%v allocations per lap of 512 values after warm-up, want 0", avg)
	}
}

func TestChunkLocality(t *testing.T) {
	// Consecutive Gets from a fresh chunk are adjacent in memory — the
	// property the hot paths rely on for cache locality. Both pointers
	// reference the same chunk slice, so the subtraction is
	// well-defined.
	var a Arena[uint64]
	p1, p2 := a.Get(), a.Get()
	d := uintptr(unsafe.Pointer(p2)) - uintptr(unsafe.Pointer(p1))
	if d != unsafe.Sizeof(uint64(0)) {
		t.Fatalf("consecutive values %d bytes apart, want %d", d, unsafe.Sizeof(uint64(0)))
	}
}
