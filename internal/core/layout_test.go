package core

import (
	"testing"
	"unsafe"
)

// TestNodeLayout pins the cache lines of Node that the data path reads.
// A Node is 360 bytes, in the 384-byte size class, so every Node starts
// on a cache line and a field's line is its offset / 64. onData and
// ingest (with feedReceivers and disjointSend) read the fields below,
// over five lines; the pump tick reads ep and queued, in line 0. The
// order was chosen by alternating bullet-wide pairs: packing
// epochPkts, recvWindow and lfDelta into four lines lost 8 of 10 to
// this one. A field added, removed or moved above the scratch at the
// end fails here: a layout shift that put ws and ticket on a sixth
// line once cost bullet-wide 8% of its events per second.
func TestNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit targets only")
	}
	var n Node
	if s := unsafe.Sizeof(n); s != 360 {
		t.Errorf("Node is %d bytes, want 360 (a 384-byte object, line-aligned)", s)
	}
	if s := unsafe.Sizeof(n.arrivals); s != 80 {
		t.Errorf("a SeqWindow is %d bytes, want 80: recheck which of them Set reads", s)
	}
	for _, f := range []struct {
		name        string
		off, size   uintptr
		first, last uintptr // lines
	}{
		{"ep", unsafe.Offsetof(n.ep), unsafe.Sizeof(n.ep), 0, 0},
		{"queued", unsafe.Offsetof(n.queued), unsafe.Sizeof(n.queued), 0, 0},
		{"sys", unsafe.Offsetof(n.sys), unsafe.Sizeof(n.sys), 0, 0},
		{"id", unsafe.Offsetof(n.id), unsafe.Sizeof(n.id), 0, 0},
		{"receivers", unsafe.Offsetof(n.receivers), unsafe.Sizeof(n.receivers), 0, 0},
		{"parent", unsafe.Offsetof(n.parent), unsafe.Sizeof(n.parent), 0, 0},
		{"children", unsafe.Offsetof(n.children), unsafe.Sizeof(n.children), 1, 1},
		{"ws", unsafe.Offsetof(n.ws), unsafe.Sizeof(n.ws), 1, 1},
		{"ticket", unsafe.Offsetof(n.ticket), unsafe.Sizeof(n.ticket), 1, 1},
		{"filter", unsafe.Offsetof(n.filter), unsafe.Sizeof(n.filter), 1, 1},
		// SeqWindow.Set reads the window's first 56 bytes: the keys and
		// vals headers and the count, ahead of a cold scratch header.
		// The keys header straddles lines 1 and 2.
		{"arrivals[:56]", unsafe.Offsetof(n.arrivals), 56, 1, 2},
		{"senders", unsafe.Offsetof(n.senders), unsafe.Sizeof(n.senders), 3, 3},
		{"epochPkts", unsafe.Offsetof(n.epochPkts), unsafe.Sizeof(n.epochPkts), 4, 4},
		{"lfDelta", unsafe.Offsetof(n.lfDelta), unsafe.Sizeof(n.lfDelta), 4, 4},
		{"recvWindow", unsafe.Offsetof(n.recvWindow), unsafe.Sizeof(n.recvWindow), 4, 4},
	} {
		if first, last := f.off/64, (f.off+f.size-1)/64; first != f.first || last != f.last {
			t.Errorf("Node.%s spans lines %d-%d (bytes %d-%d), want %d-%d",
				f.name, first, last, f.off, f.off+f.size, f.first, f.last)
		}
	}
}
