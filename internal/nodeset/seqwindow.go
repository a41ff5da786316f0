package nodeset

import (
	"sync"

	"bullet/internal/sim"
)

// SeqWindow is an open-addressed map from stream sequence number to
// sim.Time, tuned for the windowed, mostly-contiguous sequence ranges
// protocol engines track (recently-sent stamps, arrival times): the
// probe position is the sequence itself, so consecutive sequences land
// in consecutive slots with essentially no collisions. Backing storage
// is reused across Clear and, via the package pool, across peerings —
// steady-state operation allocates nothing.
//
// The zero value is usable; NewSeqWindow (paired with Release) draws
// from the pool.
type SeqWindow struct {
	keys    []uint64 // seq+1; 0 = empty slot
	vals    []sim.Time
	n       int
	scratch []uint64
}

const seqWindowMinCap = 64 // power of two

// NewSeqWindow returns an empty window, reusing pooled storage.
func NewSeqWindow() *SeqWindow {
	if w, ok := seqWindowPool.Get().(*SeqWindow); ok && w != nil {
		return w
	}
	return &SeqWindow{}
}

var seqWindowPool = sync.Pool{New: func() any { return &SeqWindow{} }}

// Release clears w and returns its storage to the pool. The caller
// must not use w afterwards.
func (w *SeqWindow) Release() {
	w.Clear()
	seqWindowPool.Put(w)
}

// Clear removes every entry, keeping the backing storage.
func (w *SeqWindow) Clear() {
	if w.n > 0 {
		clear(w.keys)
		w.n = 0
	}
}

func (w *SeqWindow) grow() {
	newCap := seqWindowMinCap
	if len(w.keys) > 0 {
		newCap = len(w.keys) * 2
	}
	oldKeys, oldVals := w.keys, w.vals
	w.keys = make([]uint64, newCap)
	w.vals = make([]sim.Time, newCap)
	w.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			w.Set(k-1, oldVals[i])
		}
	}
}

// Set stores t under seq. seq must be below math.MaxUint64 (keys are
// stored as seq+1 with 0 as the empty-slot sentinel); stream sequence
// numbers count up from 0, so the guard never fires in practice.
func (w *SeqWindow) Set(seq uint64, t sim.Time) {
	if seq == ^uint64(0) {
		panic("nodeset: SeqWindow does not support seq == MaxUint64")
	}
	// Keep load factor below 3/4 so probe chains stay short.
	if 4*(w.n+1) > 3*len(w.keys) {
		w.grow()
	}
	mask := uint64(len(w.keys) - 1)
	i := seq & mask
	for {
		k := w.keys[i]
		if k == 0 {
			w.keys[i] = seq + 1
			w.vals[i] = t
			w.n++
			return
		}
		if k == seq+1 {
			w.vals[i] = t
			return
		}
		i = (i + 1) & mask
	}
}

// Get returns the time stored under seq and whether seq is present.
func (w *SeqWindow) Get(seq uint64) (sim.Time, bool) {
	if w.n == 0 {
		return 0, false
	}
	mask := uint64(len(w.keys) - 1)
	i := seq & mask
	for {
		k := w.keys[i]
		if k == 0 {
			return 0, false
		}
		if k == seq+1 {
			return w.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// Contains reports whether seq is present.
func (w *SeqWindow) Contains(seq uint64) bool {
	_, ok := w.Get(seq)
	return ok
}

// Delete removes seq, backward-shifting the probe chain so lookups
// never need tombstones. It reports whether seq was present.
func (w *SeqWindow) Delete(seq uint64) bool {
	if w.n == 0 {
		return false
	}
	mask := uint64(len(w.keys) - 1)
	i := seq & mask
	for {
		k := w.keys[i]
		if k == 0 {
			return false
		}
		if k == seq+1 {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift deletion: walk the chain after i, moving back any
	// entry whose home position precedes the hole.
	j := i
	for {
		j = (j + 1) & mask
		k := w.keys[j]
		if k == 0 {
			break
		}
		home := (k - 1) & mask
		if ((j - home) & mask) >= ((j - i) & mask) {
			w.keys[i] = k
			w.vals[i] = w.vals[j]
			i = j
		}
	}
	w.keys[i] = 0
	w.n--
	return true
}

// DeleteOlder removes every entry whose time is strictly before cutoff.
func (w *SeqWindow) DeleteOlder(cutoff sim.Time) {
	if w.n == 0 {
		return
	}
	w.scratch = w.scratch[:0]
	for i, k := range w.keys {
		if k != 0 && w.vals[i] < cutoff {
			w.scratch = append(w.scratch, k-1)
		}
	}
	for _, seq := range w.scratch {
		w.Delete(seq)
	}
}

// DeleteBelow removes every entry whose sequence is strictly below lo.
func (w *SeqWindow) DeleteBelow(lo uint64) {
	if w.n == 0 {
		return
	}
	w.scratch = w.scratch[:0]
	for _, k := range w.keys {
		if k != 0 && k-1 < lo {
			w.scratch = append(w.scratch, k-1)
		}
	}
	for _, seq := range w.scratch {
		w.Delete(seq)
	}
}
