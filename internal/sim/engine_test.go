package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30*Millisecond, func() { got = append(got, 3) })
	e.At(10*Millisecond, func() { got = append(got, 1) })
	e.At(20*Millisecond, func() { got = append(got, 2) })
	e.Run(Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Millisecond, func() { got = append(got, i) })
	}
	e.Run(Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10*Millisecond, func() { fired = true })
	tm.Cancel()
	e.Run(Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("cancelled timer not stopped")
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(250*Millisecond, func() { at = e.Now() })
	e.Run(Second)
	if at != 250*Millisecond {
		t.Fatalf("After fired at %v, want 250ms", at)
	}
	if e.Now() != Second {
		t.Fatalf("clock advanced to %v, want until=1s", e.Now())
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick Timer
	tick = e.Every(100*Millisecond, func() {
		n++
		if n == 5 {
			tick.Cancel()
		}
	})
	e.Run(10 * Second)
	if n != 5 {
		t.Fatalf("Every fired %d times, want 5", n)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(2*Second, func() { fired++ })
	e.Run(Second)
	if fired != 0 {
		t.Fatal("event past until fired")
	}
	e.Run(3 * Second)
	if fired != 1 {
		t.Fatal("event not fired on extended run")
	}
}

func TestEngineSchedulingInPast(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(10*Millisecond, func() {
		e.At(5*Millisecond, func() { order = append(order, "past") })
		e.At(10*Millisecond, func() { order = append(order, "now") })
	})
	e.Run(Second)
	if len(order) != 2 || order[0] != "past" || order[1] != "now" {
		t.Fatalf("past-scheduled events mishandled: %v", order)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewEngine(42).RNG(7)
	b := NewEngine(42).RNG(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,id) produced different streams")
		}
	}
	c := NewEngine(42).RNG(8)
	same := 0
	d := NewEngine(42).RNG(7)
	for i := 0; i < 100; i++ {
		if c.Int63() == d.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct ids produced correlated streams (%d collisions)", same)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5)=%v", Seconds(1.5))
	}
	if got := (2500 * Millisecond).ToSeconds(); got != 2.5 {
		t.Fatalf("ToSeconds=%v", got)
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(99)
		var times []Time
		for _, d := range delays {
			e.At(Time(d)*Microsecond, func() { times = append(times, e.Now()) })
		}
		e.Run(Time(1 << 40))
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 25; i++ {
		e.At(Time(i)*Millisecond, func() {})
	}
	e.Run(Second)
	if e.Fired() != 25 {
		t.Fatalf("Fired=%d want 25", e.Fired())
	}
}

// Regression: a live periodic timer must not report Stopped between
// ticks. The old implementation cleared the underlying event's callback
// during each fire, so Stopped flickered true mid-series.
func TestEveryStoppedMidSeries(t *testing.T) {
	e := NewEngine(1)
	var tick Timer
	var mid []bool
	tick = e.Every(100*Millisecond, func() {
		mid = append(mid, tick.Stopped())
	})
	e.At(450*Millisecond, func() {
		if tick.Stopped() {
			t.Error("live periodic timer reported Stopped between ticks")
		}
	})
	e.Run(500 * Millisecond)
	for i, s := range mid {
		if s {
			t.Fatalf("tick %d observed Stopped()=true during a live series", i)
		}
	}
	if len(mid) != 5 {
		t.Fatalf("fired %d ticks, want 5", len(mid))
	}
	tick.Cancel()
	if !tick.Stopped() {
		t.Fatal("cancelled periodic timer not Stopped")
	}
}

// Cancelling a periodic timer from inside its own callback must stop
// the series immediately (no further re-arm).
func TestEveryCancelDuringFire(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tick Timer
	tick = e.Every(10*Millisecond, func() {
		n++
		tick.Cancel()
	})
	e.Run(Second)
	if n != 1 {
		t.Fatalf("series fired %d times after self-cancel, want 1", n)
	}
	if !tick.Stopped() {
		t.Fatal("self-cancelled timer not Stopped")
	}
}

// A one-shot timer reports Stopped from within its own callback (it is
// already firing and will not fire again), matching historical behavior.
func TestOneShotStoppedDuringFire(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	stopped := false
	tm = e.At(Millisecond, func() { stopped = tm.Stopped() })
	e.Run(Second)
	if !stopped {
		t.Fatal("one-shot timer not Stopped during its own fire")
	}
	if !tm.Stopped() {
		t.Fatal("fired one-shot timer not Stopped afterwards")
	}
}

// Stale handles must stay safe no-ops after their body is reissued:
// Cancel with an old id must not kill the body's new timer. The arena
// is LIFO, so each case's new timer gets the finished timer's body.
func TestTimerStaleHandleAfterBodyReuse(t *testing.T) {
	cases := []struct {
		name string
		// arm runs a timer to its end and then arms a new one, due at
		// 10ms, that calls fire; it returns both handles.
		arm func(e *Engine, fire func()) (old, fresh Timer)
	}{
		{"fired one-shot", func(e *Engine, fire func()) (old, fresh Timer) {
			old = e.At(Millisecond, func() {})
			e.Run(2 * Millisecond)
			return old, e.At(10*Millisecond, fire)
		}},
		{"one-shot arming from its own callback", func(e *Engine, fire func()) (old, fresh Timer) {
			old = e.At(Millisecond, func() { fresh = e.At(10*Millisecond, fire) })
			e.Run(2 * Millisecond)
			return old, fresh
		}},
		{"cancelled Every", func(e *Engine, fire func()) (old, fresh Timer) {
			old = e.Every(Millisecond, func() {})
			e.Run(2 * Millisecond)
			old.Cancel()
			e.Run(5 * Millisecond) // its next tick pops the cancelled body
			return old, e.At(10*Millisecond, fire)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			fired := false
			old, fresh := c.arm(e, func() { fired = true })
			if fresh.b != old.b {
				t.Fatal("new timer did not get the finished timer's body")
			}
			if !old.Stopped() {
				t.Fatal("finished timer not Stopped")
			}
			old.Cancel() // stale: must not affect fresh
			if fresh.Stopped() {
				t.Fatal("stale Cancel affected the body's new timer")
			}
			e.Run(Second)
			if !fired {
				t.Fatal("new timer did not fire after stale Cancel")
			}
		})
	}
	var zero Timer
	if !zero.Stopped() {
		t.Fatal("zero Timer must report Stopped")
	}
	zero.Cancel() // must not panic
}

// Schedule and ScheduleArg interleave with At in strict (time, seq)
// order.
func TestScheduleAndScheduleArgOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(5*Millisecond, func() { got = append(got, 0) })
	e.ScheduleArg(5*Millisecond, func(a any) { got = append(got, a.(int)) }, 1)
	e.At(5*Millisecond, func() { got = append(got, 2) })
	e.ScheduleAfter(5*Millisecond, func() { got = append(got, 3) })
	e.Run(Second)
	for i := 0; i < 4; i++ {
		if got[i] != i {
			t.Fatalf("mixed scheduling not FIFO at same instant: %v", got)
		}
	}
}

// Two engines with the same seed executing the same workload must agree
// exactly on clock, fired count, and RNG draws.
func TestEngineGoldenDeterminism(t *testing.T) {
	trace := func() (uint64, Time, int64) {
		e := NewEngine(42)
		rng := e.RNG(7)
		var sum int64
		for i := 0; i < 500; i++ {
			d := Duration(rng.Int63n(int64(Second)))
			e.Schedule(e.Now()+d, func() { sum += int64(e.Now()) })
		}
		e.Every(33*Millisecond, func() { sum++ })
		end := e.Run(2 * Second)
		return e.Fired(), end, sum
	}
	f1, t1, s1 := trace()
	f2, t2, s2 := trace()
	if f1 != f2 || t1 != t2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%d,%v,%d) vs (%d,%v,%d)", f1, t1, s1, f2, t2, s2)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks. BenchmarkEngineSchedule is the headline
// allocation-free scheduler number: the seed implementation cost ~3
// allocations per event (heap-allocated event, container/heap
// interface boxing, Timer handle); the value-heap scheduler costs zero
// in steady state.
// ---------------------------------------------------------------------

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%1000)*Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run(e.Now() + Second)
		}
	}
	e.Run(1 << 62)
}

func BenchmarkEngineScheduleArg(b *testing.B) {
	e := NewEngine(1)
	var sink int
	fn := func(a any) { sink += a.(int) }
	arg := any(1) // pre-boxed: steady-state events allocate nothing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(e.Now()+Time(i%1000)*Microsecond, fn, arg)
		if e.Pending() >= 1024 {
			e.Run(e.Now() + Second)
		}
	}
	e.Run(1 << 62)
	_ = sink
}

func BenchmarkEngineAtTimer(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(i%1000)*Microsecond, fn)
		if e.Pending() >= 1024 {
			e.Run(e.Now() + Second)
		}
	}
	e.Run(1 << 62)
}

func BenchmarkEngineEvery(b *testing.B) {
	e := NewEngine(1)
	n := 0
	e.Every(Millisecond, func() { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Time(b.N) * Millisecond)
	b.StopTimer()
	if n < b.N {
		b.Fatalf("fired %d ticks, want >= %d", n, b.N)
	}
}

// BenchmarkBucketSort sorts one bucket of uniform in-slot offsets, at
// the sizes buckets reach on the repo benchmark's paper-scale
// workloads (the bulk of bullet-paper's and bullet-wide's fall between
// 33 and 1024 entries); ns/entry is the figure to compare.
func BenchmarkBucketSort(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([]ev, n)
			for i := range src {
				src[i].key = uint64(rng.Int63n(slotMask+1))<<32 | uint64(i)
			}
			e := NewEngine(1)
			bk := &bucket{evs: make([]ev, n)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(bk.evs, src)
				bk.sorted = false
				e.sortBucket(bk)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
		})
	}
}

// TestBucketSortMatchesStableSort holds sortBucket to its contract: on
// a bucket filled in push order, it equals a stable sort by in-slot
// offset alone, entry for entry (key, callback and argument), on both
// sides of the insertion-sort cutoff and of every radix digit, and it
// leaves its scratch holding nothing.
func TestBucketSortMatchesStableSort(t *testing.T) {
	nop := func(any) {}
	patterns := []struct {
		name string
		off  func(rng *rand.Rand, i, n int) uint64
	}{
		{"random", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Int63n(slotMask + 1)) }},
		{"reversed", func(_ *rand.Rand, i, n int) uint64 { return uint64(n-1-i) * slotMask / uint64(max(n-1, 1)) }},
		{"one offset", func(*rand.Rand, int, int) uint64 { return 8191 }},
		{"0 and slotMask", func(rng *rand.Rand, _, _ int) uint64 { return uint64(rng.Intn(2)) * slotMask }},
		{"bit 6 vs 7", func(rng *rand.Rand, _, _ int) uint64 { return 1 << (6 + rng.Intn(2)) }},
		{"bit 12 vs 13", func(rng *rand.Rand, _, _ int) uint64 { return 1 << (12 + rng.Intn(2)) }},
	}
	for _, n := range []int{0, 1, 16, 17, 127, 128, 129, 1000, 70000} {
		for _, p := range patterns {
			rng := rand.New(rand.NewSource(int64(n)))
			bk := &bucket{evs: make([]ev, n)}
			for i := range bk.evs {
				v := &bk.evs[i]
				v.key, v.arg = p.off(rng, i, n)<<32|uint64(i), i
				if i%2 == 1 {
					v.fn = nop
				}
			}
			want := slices.Clone(bk.evs)
			slices.SortStableFunc(want, func(a, b ev) int { return cmp.Compare(a.key>>32, b.key>>32) })
			e := NewEngine(1)
			e.sortBucket(bk)
			if !bk.sorted {
				t.Fatalf("n=%d %s: bucket not marked sorted", n, p.name)
			}
			for i, v := range bk.evs {
				if w := want[i]; v.key != w.key || v.arg != w.arg || (v.fn == nil) != (w.fn == nil) {
					t.Fatalf("n=%d %s: entry %d is {%#x %v}, want {%#x %v}", n, p.name, i, v.key, v.arg, w.key, w.arg)
				}
			}
			for i, v := range e.scratch[:cap(e.scratch)] {
				if v.key != 0 || v.fn != nil || v.arg != nil {
					t.Fatalf("n=%d %s: scratch entry %d not cleared", n, p.name, i)
				}
			}
		}
	}
}

// TestCalendarHorizonOrdering schedules events across both sides of
// the ring window — including seconds past it — out of order, and
// checks they fire in exact (time, scheduling) order. This pins the
// migration path: events start on the far list, move into the ring as
// the clock advances, and must interleave perfectly with events pushed
// straight into their buckets.
func TestCalendarHorizonOrdering(t *testing.T) {
	e := NewEngine(1)
	times := []Time{
		500 * Millisecond, // far list at push time
		1 * Millisecond,
		200 * Millisecond, // far list at push time
		133 * Millisecond,
		10 * Second, // many epochs out
		134 * Millisecond,
		135 * Millisecond,
		2 * Millisecond,
		100 * Microsecond,
		500 * Millisecond, // duplicate instant: fires after index 0
	}
	var got []int
	for i, at := range times {
		i := i
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.Run(20 * Second)
	want := []int{8, 1, 7, 3, 5, 6, 2, 0, 9, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestCalendarMigrationTieOrder creates an exact-time tie between an
// event that waited on the far list and one pushed directly into the
// ring once the window reached that slot. The far-list event was
// scheduled first, so it must fire first.
func TestCalendarMigrationTieOrder(t *testing.T) {
	e := NewEngine(1)
	const at = 200 * Millisecond
	var got []string
	e.Schedule(at, func() { got = append(got, "early") }) // far list now
	e.Schedule(150*Millisecond, func() {
		// at is now inside the ring window: direct bucket push, and
		// its fresh seq must order it after the migrated twin.
		e.Schedule(at, func() { got = append(got, "late") })
	})
	e.Run(Second)
	if len(got) != 2 || got[0] != "early" || got[1] != "late" {
		t.Fatalf("tie order %v, want [early late]", got)
	}
}

// TestCalendarClockJumps runs the engine across idle gaps much larger
// than the ring window (Run to a far target with nothing pending, then
// AdvanceTo further still) and checks scheduling keeps working with
// the window re-based far from slot zero.
func TestCalendarClockJumps(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Run(5 * Second) // empty run: clock lands on the target
	if e.Now() != 5*Second {
		t.Fatalf("now = %v after empty run, want 5s", e.Now())
	}
	e.AdvanceTo(90 * Second)
	e.Schedule(e.Now()+3*Millisecond, func() { fired++ })
	e.Schedule(e.Now()+400*Millisecond, func() { fired++ }) // far list
	e.Schedule(e.Now(), func() { fired++ })                 // current instant
	e.Run(100 * Second)
	if fired != 3 {
		t.Fatalf("fired %d events after clock jumps, want 3", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}

// TestEngineWindowContract pins what the sharded runner's barrier
// relies on: NextAt is exact and changes nothing even when every event
// is on the far list, RunBefore(end) stops short of end itself,
// AdvanceTo over idle epochs leaves the ring holding exactly the events
// the new window covers, and AdvanceTo refuses to skip a queued event.
func TestEngineWindowContract(t *testing.T) {
	const epoch = Time(epochSlots) << slotShift
	nop := func() {}
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"NextAt on a far-only queue", func(t *testing.T, e *Engine) {
			for _, at := range []Time{3 * Second, 700 * Millisecond, 2 * Second} {
				e.Schedule(at, nop)
			}
			for i := 0; i < 2; i++ {
				if at, ok := e.NextAt(); !ok || at != 700*Millisecond {
					t.Fatalf("NextAt = %v, %v; want 700ms, true", at, ok)
				}
			}
			if e.ringN != 0 || len(e.far) != 3 || e.Now() != 0 || e.Pending() != 3 {
				t.Fatalf("NextAt moved state: ring %d, far %d, now %v", e.ringN, len(e.far), e.Now())
			}
			e.Run(Second)
			if at, ok := e.NextAt(); !ok || at != 2*Second {
				t.Fatalf("NextAt after the first fired = %v, %v; want 2s, true", at, ok)
			}
			e.Run(4 * Second)
			if at, ok := e.NextAt(); ok || at != 0 {
				t.Fatalf("NextAt on an empty queue = %v, %v", at, ok)
			}
		}},
		{"RunBefore leaves the event at end", func(t *testing.T, e *Engine) {
			e.Schedule(10*Millisecond, nop)
			e.Schedule(20*Millisecond, nop)
			e.RunBefore(20 * Millisecond)
			if e.Fired() != 1 || e.Now() != 10*Millisecond {
				t.Fatalf("fired %d, now %v; want 1, 10ms", e.Fired(), e.Now())
			}
			if at, ok := e.NextAt(); !ok || at != 20*Millisecond {
				t.Fatalf("NextAt = %v, %v; want 20ms, true", at, ok)
			}
			e.AdvanceTo(20 * Millisecond)
			e.Schedule(e.Now(), nop) // a barrier-time handoff stamped end itself
			e.RunBefore(20*Millisecond + 1)
			if e.Fired() != 3 || e.Now() != 20*Millisecond {
				t.Fatalf("fired %d, now %v; want 3, 20ms", e.Fired(), e.Now())
			}
		}},
		{"AdvanceTo across epochs", func(t *testing.T, e *Engine) {
			var got []Time
			for k := Time(9); k >= 5; k-- {
				e.Schedule(k*epoch+epoch/2, func() { got = append(got, e.Now()) })
			}
			if e.ringN != 0 {
				t.Fatalf("%d events in the ring, want all 5 on the far list", e.ringN)
			}
			e.AdvanceTo(5*epoch + 1) // window is now epochs 5 and 6
			if e.ringN != 2 || len(e.far) != 3 || e.farMin != 7*epoch+epoch/2 {
				t.Fatalf("ring %d, far %d, farMin %v; want 2, 3, %v", e.ringN, len(e.far), e.farMin, 7*epoch+epoch/2)
			}
			if at, ok := e.NextAt(); !ok || at != 5*epoch+epoch/2 {
				t.Fatalf("NextAt = %v, %v; want %v, true", at, ok, 5*epoch+epoch/2)
			}
			e.Run(10 * epoch)
			for i, at := range got {
				if at != Time(5+i)*epoch+epoch/2 {
					t.Fatalf("fire times %v", got)
				}
			}
			if len(got) != 5 {
				t.Fatalf("fired %d events, want 5", len(got))
			}
		}},
		{"AdvanceTo past a queued event panics", func(t *testing.T, e *Engine) {
			// One event in the ring, one on the far list: skipping either
			// would lose it, so neither move may happen.
			for _, at := range []Time{10 * Millisecond, 3 * Second} {
				e.Schedule(at, nop)
				e.AdvanceTo(at) // up to the event is allowed
				got := func() (msg any) {
					defer func() { msg = recover() }()
					e.AdvanceTo(at + 1)
					return nil
				}()
				want := fmt.Sprintf("sim: AdvanceTo(%d) past an event queued at %d", at+1, at)
				if got != want {
					t.Fatalf("AdvanceTo past %v: panic %v, want %q", at, got, want)
				}
				e.Run(at)
				if e.Now() != at || e.Pending() != 0 {
					t.Fatalf("now %v, %d pending after the refused move; want %v, 0", e.Now(), e.Pending(), at)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, NewEngine(1)) })
	}
}

// TestSteadyStateAllocatesNothing holds the ways protocol code keeps an
// event in flight — ScheduleArg, Schedule, an Every series, a cancelled
// After — to zero heap allocations per event once the buckets, the far
// list and the body arena have reached their working size.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var sink int
	argFn := func(a any) { sink += a.(int) }
	arg := any(1) // pre-boxed, as a pooled caller-owned argument is
	fn := func() { sink++ }
	cases := []struct {
		name string
		step func(e *Engine)
	}{
		{"ScheduleArg+Run", func(e *Engine) {
			for i := 0; i < 64; i++ {
				e.ScheduleArg(e.Now()+Time(i%16)*100*Microsecond, argFn, arg)
			}
			e.ScheduleArg(e.Now()+300*Millisecond, argFn, arg) // far list
			e.Run(e.Now() + Second)
		}},
		{"Schedule+Run", func(e *Engine) {
			for i := 0; i < 64; i++ {
				e.Schedule(e.Now()+Time(i%16)*100*Microsecond, fn)
			}
			e.ScheduleAfter(300*Millisecond, fn) // far list
			e.Run(e.Now() + Second)
		}},
		{"Every ticks", func(e *Engine) {
			if e.Pending() == 0 {
				e.Every(Millisecond, fn)
				e.Every(200*Millisecond, fn) // re-arms onto the far list
			}
			e.Run(e.Now() + Second)
		}},
		{"After+Cancel", func(e *Engine) {
			for i := 0; i < 64; i++ {
				e.After(50*Millisecond, fn).Cancel() // recycles a body
			}
			e.Run(e.Now() + Second)
		}},
		{"radix buckets", func(e *Engine) {
			// 1,024 events in each of two slots, the tail of the bucket
			// sizes on bullet-wide: both take the radix sort and its
			// scratch. A step moves the clock three slots, coprime to
			// ringSlots, so the warm-up fills every bucket to this size.
			s := e.Now() >> slotShift
			for i := 0; i < 2048; i++ {
				off := Time(uint32(i)*2654435761>>13) & slotMask
				e.ScheduleArg((s+Time(i&1))<<slotShift|off, argFn, arg)
			}
			e.Run((s + 3) << slotShift)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			// Warm-up: a step moves the clock a second, an odd number of
			// slots, so 2*ringSlots steps grow every bucket of the ring.
			for i := 0; i < 2*ringSlots; i++ {
				c.step(e)
			}
			if avg := testing.AllocsPerRun(20, func() { c.step(e) }); avg != 0 {
				t.Fatalf("%v allocations per step in steady state, want 0", avg)
			}
		})
	}
	_ = sink
}
