package nodeset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bullet/internal/sim"
)

func TestSetBasics(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Contains(0) || s.Contains(-1) {
		t.Fatal("zero set not empty")
	}
	for _, id := range []int{0, 63, 64, 1000, 5} {
		if !s.Add(id) {
			t.Fatalf("Add(%d) reported duplicate", id)
		}
	}
	if s.Add(63) {
		t.Fatal("duplicate Add reported new")
	}
	if s.Len() != 5 {
		t.Fatalf("Len=%d want 5", s.Len())
	}
	if got := s.AppendIDs(nil); !reflect.DeepEqual(got, []int{0, 5, 63, 64, 1000}) {
		t.Fatalf("IDs=%v", got)
	}
	if !s.Remove(63) || s.Remove(63) || s.Remove(-7) || s.Remove(99999) {
		t.Fatal("Remove semantics broken")
	}
	if s.Contains(63) || !s.Contains(64) {
		t.Fatal("Contains after Remove broken")
	}
}

// Iteration must be ascending — this is the determinism contract every
// engine relies on in place of sort.Ints over map keys.
func TestSetRangeAscendingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set
	want := make([]int, 0, 200)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		id := rng.Intn(4096)
		if !seen[id] {
			seen[id] = true
			want = append(want, id)
		}
		s.Add(id)
	}
	sort.Ints(want)
	got := s.AppendIDs(nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Range order diverges from sorted ids\n got %v\nwant %v", got, want)
	}
	// Early stop.
	n := 0
	s.Range(func(int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range early stop visited %d", n)
	}
}

func TestTableBasics(t *testing.T) {
	var tb Table[string]
	if _, ok := tb.Get(3); ok || tb.Len() != 0 {
		t.Fatal("zero table not empty")
	}
	tb.Put(3, "three")
	tb.Put(0, "zero")
	tb.Put(300, "big")
	if v, ok := tb.Get(3); !ok || v != "three" {
		t.Fatalf("Get(3)=%q,%v", v, ok)
	}
	if tb.At(4) != "" || tb.At(-1) != "" {
		t.Fatal("At on absent id not zero")
	}
	tb.Put(3, "replaced")
	if tb.Len() != 3 || tb.At(3) != "replaced" {
		t.Fatal("Put replace broken")
	}
	var ids []int
	var vals []string
	tb.Range(func(id int, v string) bool { ids = append(ids, id); vals = append(vals, v); return true })
	if !reflect.DeepEqual(ids, []int{0, 3, 300}) || !reflect.DeepEqual(vals, []string{"zero", "replaced", "big"}) {
		t.Fatalf("Range gave %v %v", ids, vals)
	}
	if !tb.Delete(3) || tb.Delete(3) || tb.Contains(3) {
		t.Fatal("Delete semantics broken")
	}
	if got := tb.set.AppendIDs(nil); !reflect.DeepEqual(got, []int{0, 300}) {
		t.Fatalf("IDs=%v", got)
	}
}

// Deleted slots must be zeroed so pointer references are released.
func TestTableDeleteReleasesValue(t *testing.T) {
	var tb Table[*int]
	x := 7
	tb.Put(2, &x)
	tb.Delete(2)
	tb.set.Add(2) // peek: re-mark present without Put
	if tb.At(2) != nil {
		t.Fatal("Delete left the pointer in the slot")
	}
}

func TestSeqWindowAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := &SeqWindow{}
	ref := map[uint64]sim.Time{}
	// Mixed workload over a sliding window, like sentSince/arrivals.
	for i := 0; i < 20000; i++ {
		seq := uint64(rng.Intn(3000))
		switch rng.Intn(4) {
		case 0, 1:
			tm := sim.Time(rng.Int63n(1 << 40))
			w.Set(seq, tm)
			ref[seq] = tm
		case 2:
			got, ok := w.Get(seq)
			want, wok := ref[seq]
			if ok != wok || got != want {
				t.Fatalf("Get(%d)=(%d,%v) want (%d,%v)", seq, got, ok, want, wok)
			}
		case 3:
			if w.Delete(seq) != (func() bool { _, ok := ref[seq]; return ok })() {
				t.Fatalf("Delete(%d) mismatch", seq)
			}
			delete(ref, seq)
		}
		if w.n != len(ref) {
			t.Fatalf("Len=%d want %d", w.n, len(ref))
		}
	}
	// Full contents must match.
	if got := entries(w); !reflect.DeepEqual(got, ref) {
		t.Fatalf("contents diverge: %d vs %d entries", len(got), len(ref))
	}
}

// entries returns w's (seq, time) pairs.
func entries(w *SeqWindow) map[uint64]sim.Time {
	m := make(map[uint64]sim.Time, w.n)
	for i, k := range w.keys {
		if k != 0 {
			m[k-1] = w.vals[i]
		}
	}
	return m
}

func TestSeqWindowDeleteOlderAndBelow(t *testing.T) {
	w := &SeqWindow{}
	for seq := uint64(0); seq < 100; seq++ {
		w.Set(seq, sim.Time(seq)*sim.Second)
	}
	w.DeleteOlder(30 * sim.Second)
	if w.n != 70 {
		t.Fatalf("after DeleteOlder Len=%d want 70", w.n)
	}
	if w.Contains(29) || !w.Contains(30) {
		t.Fatal("DeleteOlder boundary wrong (must be strictly-before)")
	}
	w.DeleteBelow(50)
	if w.n != 50 || w.Contains(49) || !w.Contains(50) {
		t.Fatalf("DeleteBelow wrong: len=%d", w.n)
	}
	w.Clear()
	if w.n != 0 || w.Contains(60) {
		t.Fatal("Clear did not empty window")
	}
}

// TestSeqWindowZeroValueAndReuse: the zero window is ready for use,
// and after Release (a Clear) it keeps its storage but no entry.
func TestSeqWindowZeroValueAndReuse(t *testing.T) {
	var w SeqWindow
	if w.Contains(0) || w.n != 0 {
		t.Fatal("zero window is not empty")
	}
	for seq := uint64(0); seq < 500; seq++ {
		w.Set(seq, sim.Time(seq))
	}
	slots := len(w.keys)
	w.Release()
	if w.n != 0 || len(w.keys) != slots {
		t.Fatalf("after Release: %d entries in %d slots, want 0 in %d", w.n, len(w.keys), slots)
	}
	for seq := uint64(1000); seq < 1100; seq++ {
		w.Set(seq, 1)
	}
	if w.n != 100 || w.Contains(5) {
		t.Fatal("reused window retains stale entries")
	}
}

func BenchmarkSeqWindowSetDelete(b *testing.B) {
	b.ReportAllocs()
	w := &SeqWindow{}
	for i := 0; i < b.N; i++ {
		seq := uint64(i)
		w.Set(seq, sim.Time(i))
		if seq >= 128 {
			w.Delete(seq - 128)
		}
	}
}

func BenchmarkSetRange(b *testing.B) {
	b.ReportAllocs()
	var s Set
	for i := 0; i < 1024; i += 3 {
		s.Add(i)
	}
	n := 0
	for i := 0; i < b.N; i++ {
		s.Range(func(int) bool { n++; return true })
	}
	_ = n
}

// Probe chains that wrap around the end of the table are the boundary
// case of open addressing: sequences whose home slot is the last index
// collide into slot 0, and backward-shift deletion must compute chain
// distances modulo the capacity to pull them back correctly.
func TestSeqWindowProbeWrapAroundBoundary(t *testing.T) {
	w := &SeqWindow{}
	// Fill to just below the grow threshold with sequences that all
	// home at the last slot (seq % 64 == 63), forcing a probe chain
	// that wraps: 63 -> 0 -> 1 -> ...
	seqs := []uint64{63, 127, 191, 255, 319}
	for i, s := range seqs {
		w.Set(s, sim.Time(i+1))
	}
	// Deleting the chain head leaves a hole at the boundary slot; every
	// wrapped entry must remain reachable afterwards.
	if !w.Delete(63) {
		t.Fatal("chain head not present")
	}
	for i, s := range seqs[1:] {
		got, ok := w.Get(s)
		if !ok || got != sim.Time(i+2) {
			t.Fatalf("seq %d lost after boundary deletion: (%v, %v)", s, got, ok)
		}
	}
	// Delete from the middle of the wrapped chain too.
	if !w.Delete(191) {
		t.Fatal("mid-chain entry not present")
	}
	for _, s := range []uint64{127, 255, 319} {
		if !w.Contains(s) {
			t.Fatalf("seq %d lost after mid-chain deletion", s)
		}
	}
	if w.n != 3 {
		t.Fatalf("Len = %d, want 3", w.n)
	}
}
