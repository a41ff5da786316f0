package nodeset

import (
	"maps"
	"testing"

	"bullet/internal/sim"
)

// maxSeqScript bounds a fuzzed script to 1,024 ops of three bytes.
const maxSeqScript = 3 * 1024

// scriptSeq maps two script bytes to a seq offset. The mode picks the
// shape: a dense window like arrivals', one home slot at the minimum
// capacity (chains that wrap past the table's end), one home slot at
// every capacity up to 1,024 (chains that survive grow), or a sparse
// spread.
func scriptSeq(mode, a, b byte) uint64 {
	switch mode % 4 {
	case 0:
		return uint64(a)
	case 1:
		return uint64(a)<<6 | 63
	case 2:
		return uint64(a)<<10 | 1023
	}
	return uint64(a)<<8 | uint64(b)
}

// checkSeqWindowScript drives a SeqWindow and a map through the same
// script, three bytes an op, and holds the window to the map: every
// Get and Delete result, the entry count after every op, and the whole
// contents after every op that removes entries or grows the table, and
// at the end. Ops (first byte mod 8; its bits 3-4 pick scriptSeq's
// mode):
//   - 0, 1: Set(seq, third byte);
//   - 2: Get(seq);
//   - 3, 4: Delete(seq);
//   - 5: DeleteBelow(seq);
//   - 6: DeleteOlder(third byte);
//   - 7: Clear.
func checkSeqWindowScript(t *testing.T, base uint64, script []byte) {
	if len(script) > maxSeqScript {
		script = script[:maxSeqScript]
	}
	base = min(base, ^uint64(0)-1<<20)
	var w SeqWindow
	ref := map[uint64]sim.Time{}
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		seq := base + scriptSeq(op>>3, a, b)
		slots := len(w.keys)
		whole := false
		switch op % 8 {
		case 0, 1:
			w.Set(seq, sim.Time(b))
			ref[seq] = sim.Time(b)
			whole = len(w.keys) != slots
		case 2:
			got, ok := w.Get(seq)
			want, wok := ref[seq]
			if ok != wok || got != want {
				t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, %v)", i/3, seq, got, ok, want, wok)
			}
		case 3, 4:
			_, want := ref[seq]
			if got := w.Delete(seq); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i/3, seq, got, want)
			}
			delete(ref, seq)
			whole = true
		case 5:
			w.DeleteBelow(seq)
			maps.DeleteFunc(ref, func(s uint64, _ sim.Time) bool { return s < seq })
			whole = true
		case 6:
			w.DeleteOlder(sim.Time(b))
			maps.DeleteFunc(ref, func(_ uint64, at sim.Time) bool { return at < sim.Time(b) })
			whole = true
		case 7:
			w.Clear()
			clear(ref)
			whole = true
		}
		if w.n != len(ref) {
			t.Fatalf("op %d (%d): %d entries, want %d", i/3, op%8, w.n, len(ref))
		}
		if whole {
			checkSeqWindowContents(t, i/3, &w, ref)
		}
	}
	checkSeqWindowContents(t, -1, &w, ref)
}

// checkSeqWindowContents holds w's slots to ref and finds every entry
// of ref by probing from its home slot.
func checkSeqWindowContents(t *testing.T, op int, w *SeqWindow, ref map[uint64]sim.Time) {
	t.Helper()
	if got := entries(w); !maps.Equal(got, ref) {
		t.Fatalf("op %d: window holds %d entries %v, want %d %v", op, len(got), got, len(ref), ref)
	}
	for seq, want := range ref {
		if got, ok := w.Get(seq); !ok || got != want {
			t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, true): a probe chain is broken", op, seq, got, ok, want)
		}
	}
}

// SeqWindow agrees with a map under any script of Sets, Gets, Deletes,
// DeleteBelows, DeleteOlders and Clears, with seqs shaped to collide
// so that grow rehashes long chains and Delete shifts them backward.
func FuzzSeqWindowMatchesMap(f *testing.F) {
	f.Add(uint64(0), []byte{0, 1, 5, 0, 2, 6, 2, 1, 0, 3, 1, 0, 2, 1, 0})
	f.Add(uint64(1000), []byte{8, 0, 1, 8, 1, 2, 8, 2, 3, 11, 0, 0, 10, 1, 0, 6, 0, 3, 7, 0, 0})
	f.Fuzz(checkSeqWindowScript)
}
