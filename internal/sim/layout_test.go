package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestHotLayout pins the size of a queued event: two entries per cache
// line in a bucket and on the far list. It pins a timer too: its body
// at half a line, its handle at two words. A field added to any fails.
func TestHotLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit targets only")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"ev", unsafe.Sizeof(ev{}), 32},
		{"farEv", unsafe.Sizeof(farEv{}), 32},
		{"evBody", unsafe.Sizeof(evBody{}), 32},
		{"Timer", unsafe.Sizeof(Timer{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestConsumedEntriesDropReferences holds the ring, the far list and
// the radix sort's scratch to releasing what they were handed: a
// closure given to Schedule, and an argument given to ScheduleArg, are
// collectable once they have run, though the bucket slots, the far
// list's spare capacity and the scratch they sat in live on.
func TestConsumedEntriesDropReferences(t *testing.T) {
	e := NewEngine(1)
	freed := make(chan string, 6)
	track := func(name string) *[64]byte {
		p := new([64]byte)
		runtime.SetFinalizer(p, func(*[64]byte) { freed <- name })
		return p
	}
	schedule := func(name string, at Time) {
		p := track(name + " closure")
		e.Schedule(at, func() { p[0]++ })
		e.ScheduleArg(at, func(a any) { a.(*[64]byte)[0]++ }, track(name+" arg"))
	}
	schedule("ring", Millisecond)
	schedule("far", Second) // waits on the far list, then in a bucket
	schedule("radix", 5*Millisecond)
	for i := 0; i < 16; i++ { // 18 in the bucket: sorted through the scratch
		e.Schedule(5*Millisecond-Time(i), func() {})
	}
	e.Schedule(3*Second, func() {})
	e.Run(2 * Second)
	if e.Fired() != 22 || e.Pending() != 1 {
		t.Fatalf("fired %d, pending %d; want 22, 1", e.Fired(), e.Pending())
	}
	want := map[string]bool{"ring closure": true, "ring arg": true, "far closure": true, "far arg": true,
		"radix closure": true, "radix arg": true}
	for len(want) > 0 {
		runtime.GC() // finalizers run on their own goroutine afterwards
		select {
		case name := <-freed:
			delete(want, name)
		case <-time.After(2 * time.Second):
			t.Fatalf("still reachable after running and GC: %v", want)
		}
	}
	runtime.KeepAlive(e)
}
