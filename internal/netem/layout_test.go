package netem

import (
	"testing"
	"unsafe"

	"bullet/internal/topology"
)

// TestHotLayout pins the forwarding state's cache footprint. An
// inflight is two lines, and everything a steady hop reads — the route
// header with the next link's id, and the packet's Kind, Trace and
// Size — ends within the first; a link record is one line, and an
// array of them starts on a line boundary, so a hop touches one line
// of link state. A uint64 added to Packet or linkRec fails it: at 120
// or 136 bytes the inflight arena's values drift across line
// boundaries, and at 72 a record straddles two lines, and the measured
// gain is lost.
func TestHotLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit targets only")
	}
	var f inflight
	if n := unsafe.Sizeof(f); n != 128 {
		t.Errorf("inflight is %d bytes, want 128", n)
	}
	pkt := unsafe.Offsetof(f.pkt)
	hot := []struct {
		name string
		end  uintptr
	}{
		{"path", unsafe.Offsetof(f.path) + unsafe.Sizeof(f.path)},
		{"i", unsafe.Offsetof(f.i) + unsafe.Sizeof(f.i)},
		{"lid", unsafe.Offsetof(f.lid) + unsafe.Sizeof(f.lid)},
		{"cur", unsafe.Offsetof(f.cur) + unsafe.Sizeof(f.cur)},
		{"epoch", unsafe.Offsetof(f.epoch) + unsafe.Sizeof(f.epoch)},
		{"pkt.Kind", pkt + unsafe.Offsetof(f.pkt.Kind) + unsafe.Sizeof(f.pkt.Kind)},
		{"pkt.Trace", pkt + unsafe.Offsetof(f.pkt.Trace) + unsafe.Sizeof(f.pkt.Trace)},
		{"pkt.Size", pkt + unsafe.Offsetof(f.pkt.Size) + unsafe.Sizeof(f.pkt.Size)},
	}
	for _, h := range hot {
		if h.end > 64 {
			t.Errorf("inflight.%s ends at byte %d, past the first cache line", h.name, h.end)
		}
	}
	if n := unsafe.Sizeof(linkRec{}); n != 64 {
		t.Errorf("linkRec is %d bytes, want 64", n)
	}
	_, net, _ := testNet(t, 1, topology.NoLoss)
	if p := uintptr(unsafe.Pointer(&net.links[0])); p%64 != 0 {
		t.Errorf("the link records start %d bytes into a cache line", p%64)
	}
}
