package netem

import (
	"testing"
	"unsafe"
)

// TestHotLayout pins the forwarding state's cache footprint. An
// inflight is two lines, and everything a steady hop reads — the route
// header and the packet's Kind, Trace and Size — ends within the first;
// a dirState is half a line, so the two directions of a link share one
// and none straddles. A uint64 added to Packet or dirState fails it:
// at 120 or 136 bytes the inflight arena's values drift across line
// boundaries and the measured gain is lost.
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
	if n := unsafe.Sizeof(dirState{}); n != 32 {
		t.Errorf("dirState is %d bytes, want 32", n)
	}
}
