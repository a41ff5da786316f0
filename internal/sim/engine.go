// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of events.
// Events scheduled for the same instant fire in scheduling order, so a
// run is a pure function of the initial configuration and RNG seeds.
// All protocol code in this repository (netem, TFRC, RanSub, Bullet)
// executes inside engine callbacks on a single goroutine.
//
// # Scheduler internals
//
// The queue is a calendar queue: a ring of 256 time buckets of ~0.5 ms
// each for the near future, and one unsorted list for everything past
// it. The design is driven by the measured push profile of the Figure 7
// run — effectively every event is scheduled 100 µs to 100 ms ahead
// (link latencies, serialization delays, pump and TFRC timers), and
// exact-time ties are vanishingly rare — so a push is an O(1) append to
// the ring bucket of its slot, and ordering work is deferred to the
// moment a bucket becomes the earliest: it is sorted once and then
// consumed in place, head to tail. A bucket is filled in push order, so
// a stable sort by the time's offset within the slot alone puts it in
// (time, push position) order — push order breaks the ties for free —
// and a stable LSD radix sort does that in one counting pass and three
// scatter passes per entry, whatever the input order, where a heap
// pays ~log n compares and three slice moves on every pop.
//
// The ring is refilled half at a time. Virtual time is cut into epochs
// of 128 slots (~67 ms); the ring holds the clock's epoch and the next
// one, and a push past those is appended to the far list. When the
// clock enters a new epoch, one pass over the far list files the events
// of the newly covered epoch into their buckets and keeps the rest.
// The pass is cheap because the far list is short next to an epoch's
// work: on the repo benchmark 1.5–3% of pushes go to the far list
// (0.2% on streamer-forward), and a pass reads ~2,800 entries on
// bullet-paper against ~27,000 events fired per epoch (~440 against
// ~4,400 on bullet-dynamics, ~7,000 against ~49,000 on bullet-wide) —
// sequentially, 32 bytes each. The earliest far time is kept exact by
// every push and every pass, so NextAt never searches the list.
//
// A queued event is a value: its ordering key, the callback and the
// callback's argument sit in the bucket entry itself (32 bytes), so
// dispatch reads the line the sort just touched and nothing behind it,
// and the steady-state cost of an event is zero heap allocations. Only
// a cancellable or periodic timer has a body (evBody, in an arena of
// chunked slots that never move), reached through the entry's argument.
//
// None of this layout is observable. The contract is that events fire
// in (time, scheduling order), and a bucket receives its events in
// scheduling order (see ev), so an entry's position at push breaks ties
// exactly as a queue-wide sequence number would — without the counter.
// FuzzEngineMatchesSortedSlice holds the engine to exactly that,
// against a slice kept sorted by (time, sequence).
//
// A cancellable timer is its arena body: At/After/Every take a body,
// stamp it with an id from a counter that never repeats, and return a
// value-type Timer naming (body, id). The arena zeroes a body when it
// goes back, so a handle whose id no longer matches its body's belongs
// to a finished timer, and Cancel and Stopped on it are safe no-ops.
// The hot fire-and-forget paths (Schedule, ScheduleArg) skip the arena
// entirely — the dispatch loop knows nothing of timers, which are
// ordinary events whose callback is the engine's fireTimer; ScheduleArg
// additionally avoids per-event closures by carrying a caller-owned
// argument to a reusable callback. Every re-arms in place: the body is
// reused, so a series allocates nothing per tick.
package sim

import (
	"math/rand"

	"bullet/internal/arena"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration is a virtual time span in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts a floating point number of seconds to a Duration.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// ToSeconds converts a Time or Duration to floating point seconds.
func (t Time) ToSeconds() float64 { return float64(t) / float64(Second) }

// Timer is a handle for a scheduled event. Cancel prevents the callback
// from running if it has not fired yet. For periodic timers created with
// Every, Cancel stops the whole series. The zero Timer is valid: Cancel
// is a no-op and Stopped reports true.
type Timer struct {
	b  *evBody
	id uint64
}

// Cancel stops the timer. It is safe to call multiple times, after the
// event has fired, and on the zero Timer.
func (t Timer) Cancel() {
	if t.b != nil && t.b.id == t.id {
		t.b.cancelled = true
	}
}

// Stopped reports whether the timer was cancelled or has fired and will
// not fire again. A periodic timer reports stopped only after Cancel:
// between ticks it is live.
func (t Timer) Stopped() bool {
	return t.b == nil || t.b.id != t.id || t.b.cancelled
}

// evBody is a cancellable or periodic timer: what it keeps behind its
// queued event (it is the event's arg; fireTimer is its fn), allocated
// from the engine's arena and stationary until the timer finishes. Ids
// start at 1, so a body back in the arena (zeroed) matches no handle.
type evBody struct {
	fn        func()
	period    Duration // > 0: periodic, re-armed after each fire
	id        uint64
	cancelled bool
}

// Calendar-queue geometry. A slot is 2^slotShift ns of virtual time
// (~524 µs — just under the topology's link-latency decade). At the
// repo benchmark's scales a sorted bucket holds 73 events on average
// on bullet-steady, 131 on streamer-forward, 211 on bullet-paper and
// 379 on bullet-wide (under 2,048), which is what sortBucket's radix
// path is for; finer slots would not spare the sort, since 99.9% of
// events have an instant to themselves and one instant per bucket
// would take ~200× more of them. The ring has ringSlots buckets
// (~134 ms) and is refilled from the far list half a ring — one epoch,
// ~67 ms — at a time, so it always reaches between one and two epochs
// past the clock: past the bulk of the measured push horizon of the
// hot paths; the pump/TFRC timer tail beyond it waits on the far list.
const (
	slotShift  = 19
	ringSlots  = 256
	ringMask   = ringSlots - 1
	epochSlots = ringSlots / 2
)

// ev is one event queued in a ring bucket. key is the event's offset
// within the bucket's slot (at & slotMask) in the high 32 bits and the
// bucket's length when the event was pushed in the low 32, so within a
// bucket one integer compare is (time, push order), keys are unique,
// and the event's time is bucket.slot<<slotShift | key>>32.
//
// Push order within a bucket is scheduling order, which is what lets
// the key stand in for a queue-wide sequence number: a slot takes
// direct pushes only once limit covers it; setNow runs migrate in the
// same call that advances limit, so a slot's far events are filed
// before any direct push can reach it; and migrate files them in
// far-list (= push) order into a bucket its stale stamp reset to empty.
type ev struct {
	key uint64
	fn  func(any)
	arg any
}

// farEv is one event on the far list: unordered, its time stored whole.
type farEv struct {
	at  Time
	fn  func(any)
	arg any
}

const slotMask = 1<<slotShift - 1

// bucket holds the events of one absolute slot. Future buckets are
// unsorted append targets; when a bucket becomes the earliest nonempty
// one it is sorted by key once and consumed in place via head.
// Ring indices are reused as the window advances, so each bucket is
// stamped with the absolute slot it currently holds: a stale stamp
// means "empty, reset me on next use".
type bucket struct {
	slot   int64
	head   int
	sorted bool
	evs    []ev
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now Time
	// The near future: ring buckets for slots [base, limit). base
	// tracks slot(now); limit is two epochs past the start of base's
	// epoch; scan is the slot cursor of the earliest possibly-nonempty
	// bucket (monotone within a window, lowered only by a push below
	// it); ringN counts unconsumed ring events.
	ring  [ringSlots]bucket
	base  int64
	limit int64
	scan  int64
	ringN int
	// The far future: every event at or past limit, in push order, and
	// the earliest of their times (meaningful while far is nonempty).
	far    []farEv
	farMin Time
	// The radix sort's other half (see sortBucket): at least as long as
	// the largest bucket sorted, and all zero between sorts.
	scratch []ev

	seed  int64
	fired uint64

	// Timers: the fireTimer method value every At/After/Every event
	// carries (made once), their bodies, and the last id issued.
	timerFn func(any)
	bodies  arena.Arena[evBody]
	timerID uint64
}

// NewEngine returns an engine with the clock at zero. The seed is used
// to derive per-entity RNG streams via RNG.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed, limit: 2 * epochSlots}
	e.timerFn = e.fireTimer
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the master seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued (including
// cancelled timers that have not been popped yet).
func (e *Engine) Pending() int { return e.ringN + len(e.far) }

// RNG derives a deterministic random stream for the given entity id.
// Distinct ids yield independent streams; the same (seed, id) pair
// always yields the same stream. The stream is a pure function of
// (seed, id) whenever it is built, on whichever engine of a run, so a
// caller may build it at its first draw instead of at setup, or build
// it for one draw and drop it, and draw exactly what it would have.
func (e *Engine) RNG(id int64) *rand.Rand {
	z := Mix64(uint64(e.seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB)
	return rand.New(rand.NewSource(int64(z)))
}

// Mix64 is the splitmix64 finalizer, the one mixer behind every
// counter-hash stream: engine RNG seeds, netem's per-link-direction
// loss draws and the adversary's selection scores and stream.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// ---------------------------------------------------------------------
// Calendar queue: ring of per-slot buckets + unsorted far-future list.
//
// Invariants:
//   - base == slot(now); every queued event has at >= now, so its slot
//     is >= base.
//   - limit == (base/epochSlots + 2) * epochSlots, so the window
//     [base, limit) is never wider than the ring and no two of its
//     slots share a bucket.
//   - the ring holds exactly the events with slot in [base, limit);
//     far holds the rest, and farMin is the least of their times.
//   - scan <= the slot of the earliest unconsumed ring event, and all
//     buckets for slots in [base, scan) are empty.
// ---------------------------------------------------------------------

// push enqueues fn(arg) at time at. A time in the past runs at the
// current instant, after the events already queued for it (FIFO).
func (e *Engine) push(at Time, fn func(any), arg any) {
	if at < e.now {
		at = e.now
	}
	if int64(at)>>slotShift < e.limit {
		e.ringPut(at, fn, arg)
		return
	}
	if len(e.far) == 0 || at < e.farMin {
		e.farMin = at
	}
	e.far = append(e.far, farEv{at, fn, arg})
}

// ringPut files an event into the bucket of at's slot, resetting a
// bucket whose stamp says it still belongs to a slot that has left the
// window (such a bucket is always fully consumed — every event below
// now has fired). A sorted bucket is the one being (or about to be)
// consumed: keep it sorted with an ordered insert. The new key's push
// position exceeds every one in the bucket, so its upper bound can
// never land below head: everything consumed so far is strictly smaller
// than any event still arriving.
func (e *Engine) ringPut(at Time, fn func(any), arg any) {
	s := int64(at) >> slotShift
	bk := &e.ring[s&ringMask]
	if bk.slot != s {
		bk.slot, bk.head, bk.sorted = s, 0, false
		bk.evs = bk.evs[:0]
	}
	v := ev{uint64(at&slotMask)<<32 | uint64(len(bk.evs)), fn, arg}
	if bk.sorted {
		evs := bk.evs
		lo, hi := bk.head, len(evs)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if evs[m].key < v.key {
				lo = m + 1
			} else {
				hi = m
			}
		}
		evs = append(evs, ev{})
		copy(evs[lo+1:], evs[lo:])
		evs[lo] = v
		bk.evs = evs
	} else {
		bk.evs = append(bk.evs, v)
	}
	if s < e.scan {
		e.scan = s
	}
	e.ringN++
}

// at rebuilds the time of the bucket's event with the given key.
func (bk *bucket) at(key uint64) Time { return Time(bk.slot<<slotShift | int64(key>>32)) }

// sortBucket orders a never-consumed bucket (head 0, entries in push
// order) by key. Since entry i was pushed i-th, a stable sort by the
// in-slot offset alone is a sort by key: push order breaks the ties.
// Up to 16 entries take an insertion sort on the whole key; a larger
// bucket takes a stable LSD radix sort on the 19-bit offset, in digits
// of 7, 6 and 6 bits: one pass counts all three digits, then three
// scatter passes bounce the entries bucket → scratch → bucket →
// scratch. Copied back, the scratch is cleared so it keeps no callback
// or argument reachable.
func (e *Engine) sortBucket(bk *bucket) {
	bk.sorted = true
	evs := bk.evs
	n := len(evs)
	if n <= 16 {
		for i := 1; i < n; i++ {
			v := evs[i]
			j := i
			for j > 0 && v.key < evs[j-1].key {
				evs[j] = evs[j-1]
				j--
			}
			evs[j] = v
		}
		return
	}
	var c0 [128]int32
	var c1, c2 [64]int32
	for i := range evs {
		o := evs[i].key >> 32
		c0[o&127]++
		c1[o>>7&63]++
		c2[o>>13&63]++
	}
	var s0, s1, s2 int32
	for d := range c0 {
		c0[d], s0 = s0, s0+c0[d]
	}
	for d := range c1 {
		c1[d], s1 = s1, s1+c1[d]
		c2[d], s2 = s2, s2+c2[d]
	}
	if cap(e.scratch) < n {
		// Doubled: bucket sizes creep up over a run, so growing to just
		// each new largest bucket would reallocate ~50 times per engine.
		e.scratch = make([]ev, max(n, 2*cap(e.scratch)))
	}
	tmp := e.scratch[:n]
	for i := range evs {
		d := evs[i].key >> 32 & 127
		tmp[c0[d]] = evs[i]
		c0[d]++
	}
	for i := range tmp {
		d := tmp[i].key >> 39 & 63
		evs[c1[d]] = tmp[i]
		c1[d]++
	}
	for i := range evs {
		d := evs[i].key >> 45 & 63
		tmp[c2[d]] = evs[i]
		c2[d]++
	}
	copy(evs, tmp)
	clear(tmp)
}

// ringHead advances scan to the earliest nonempty bucket and returns
// it sorted, with its head entry the queue-wide minimum (every far
// event is at or past limit). Callers must ensure ringN > 0.
func (e *Engine) ringHead() *bucket {
	for {
		bk := &e.ring[e.scan&ringMask]
		if bk.slot == e.scan && bk.head < len(bk.evs) {
			if !bk.sorted {
				e.sortBucket(bk)
			}
			return bk
		}
		e.scan++
	}
}

// setNow advances the clock and the window base with it. Buckets
// between the old and new base are necessarily empty — their events
// were all at < t and have fired — so no walk is needed; the base jumps
// directly. When it lands in a new epoch the window is extended and
// refilled from the far list.
func (e *Engine) setNow(t Time) {
	e.now = t
	s := int64(t) >> slotShift
	if s == e.base {
		return
	}
	e.base = s
	if e.scan < s {
		e.scan = s
	}
	if limit := (s/epochSlots + 2) * epochSlots; limit != e.limit {
		e.limit = limit
		e.migrate()
	}
}

// migrate moves every far event that the window now covers into its
// bucket, in one pass that compacts the survivors in place and
// recomputes farMin from them. Push order is kept on both sides — the
// buckets' keys depend on it (see ev). The tail compacted away is
// cleared so the list does not keep filed callbacks reachable.
func (e *Engine) migrate() {
	horizon := Time(e.limit << slotShift)
	if len(e.far) == 0 || e.farMin >= horizon {
		return
	}
	keep := e.far[:0]
	for _, v := range e.far {
		if v.at < horizon {
			e.ringPut(v.at, v.fn, v.arg)
			continue
		}
		if len(keep) == 0 || v.at < e.farMin {
			e.farMin = v.at
		}
		keep = append(keep, v)
	}
	clear(e.far[len(keep):])
	e.far = keep
}

// ---------------------------------------------------------------------
// Scheduling API.
// ---------------------------------------------------------------------

// timer queues a new cancellable event: a body from the arena behind
// the engine's fireTimer callback.
func (e *Engine) timer(t Time, period Duration, fn func()) Timer {
	e.timerID++
	b := e.bodies.Get()
	b.fn, b.period, b.id = fn, period, e.timerID
	e.push(t, e.timerFn, b)
	return Timer{b: b, id: e.timerID}
}

// fireTimer is the callback of every At/After/Every event. A cancelled
// timer is popped without counting as fired; a one-shot reports stopped
// from the moment it fires; a periodic one re-arms after its callback
// unless that cancelled the series.
func (e *Engine) fireTimer(a any) {
	b := a.(*evBody)
	switch {
	case b.cancelled:
		e.fired-- // exec counted the pop; Fired counts callbacks run
	case b.period <= 0:
		// It is firing now: the body goes back first, so the handle
		// reports stopped from here on, even to Stopped calls made
		// during the callback.
		fn := b.fn
		e.bodies.Put(b)
		fn()
		return
	default:
		b.fn()
		if !b.cancelled {
			// The body is reused; only a fresh entry is pushed.
			e.push(e.now+b.period, e.timerFn, b)
			return
		}
	}
	e.bodies.Put(b)
}

// runFunc is the callback behind Schedule: the event's arg is the
// caller's func() (pointer-shaped, so boxing it allocates nothing).
func runFunc(a any) { a.(func())() }

// At schedules fn to run at absolute time t and returns a cancellable
// Timer. Callers that never cancel should prefer Schedule, which skips
// the timer body.
func (e *Engine) At(t Time, fn func()) Timer { return e.timer(t, 0, fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run every period, starting after the first
// period elapses. The returned Timer cancels the whole series. The
// series re-arms in place: no allocation per tick.
func (e *Engine) Every(period Duration, fn func()) Timer {
	return e.timer(e.now+period, period, fn)
}

// Schedule runs fn at absolute time t with no cancellation handle.
// This is the allocation-free fast path for fire-and-forget events.
func (e *Engine) Schedule(t Time, fn func()) {
	e.push(t, runFunc, fn)
}

// ScheduleAfter runs fn d after the current time with no handle.
func (e *Engine) ScheduleAfter(d Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

// ScheduleArg runs fn(arg) at absolute time t with no handle. Passing a
// long-lived fn (e.g. a method value stored once) with a per-event arg
// avoids allocating a closure per event; combined with caller-side arg
// pooling the steady-state cost of an event is zero allocations.
func (e *Engine) ScheduleArg(t Time, fn func(any), arg any) {
	e.push(t, fn, arg)
}

// Run executes every event at or before until, then advances the clock
// to until (if it is not already later) and returns it.
func (e *Engine) Run(until Time) Time {
	e.exec(until, false)
	if e.now < until {
		e.setNow(until)
	}
	return e.now
}

// RunBefore executes events strictly before end, leaving the clock at
// the last executed event. It is the shard-window primitive of the
// conservative-PDES runner: a window [T, end) runs every shard's
// events with at < end, then the barrier exchanges cross-shard
// handoffs (all provably at >= end thanks to the lookahead bound) and
// AdvanceTo moves every clock to end. Unlike Run, the clock is not
// advanced past the last event — barrier-time events produced later in
// the same round must still be schedulable at end itself.
func (e *Engine) RunBefore(end Time) {
	e.exec(end, true)
}

// NextAt returns the time of the earliest queued event, if any. A
// cancelled timer that has not been popped yet counts — callers using
// this to size an execution window may see a spuriously early bound,
// which is harmless (the window is merely shorter than necessary).
// NextAt is deliberately read-only — the sharded runner's deciding
// shard calls it on quiescent sibling engines at the window barrier,
// and keeping it mutation-free means the release edge only has to
// order reads. An unsorted head bucket is scanned instead of sorted.
func (e *Engine) NextAt() (Time, bool) {
	if e.ringN == 0 {
		if len(e.far) == 0 {
			return 0, false
		}
		return e.farMin, true
	}
	for s := e.scan; ; s++ {
		bk := &e.ring[s&ringMask]
		if bk.slot != s || bk.head >= len(bk.evs) {
			continue
		}
		min := bk.evs[bk.head].key
		if !bk.sorted {
			for i := bk.head + 1; i < len(bk.evs); i++ {
				if k := bk.evs[i].key; k < min {
					min = k
				}
			}
		}
		return bk.at(min), true
	}
}

// AdvanceTo moves the clock forward to t without executing events.
// Moving backwards is a no-op. Callers must ensure no queued event is
// earlier than t (the sharded runner's windows guarantee this).
func (e *Engine) AdvanceTo(t Time) {
	if e.now < t {
		e.setNow(t)
	}
}

// exec is the shared event loop: it executes events while the head is
// <= limit (strict=false, Run semantics) or < limit (strict=true,
// RunBefore semantics). Dispatch is batched by deadline: the outer loop
// admits one timestamp against the limit and sets the clock once; the
// inner loop then drains every event at that timestamp — including
// ones its callbacks append at the current instant, which join the
// batch tail in FIFO order exactly as the serial schedule requires.
func (e *Engine) exec(limit Time, strict bool) {
	for e.ringN+len(e.far) > 0 {
		var t Time
		if e.ringN > 0 {
			bk := e.ringHead()
			t = bk.at(bk.evs[bk.head].key)
		} else {
			t = e.farMin
		}
		if t > limit || (strict && t == limit) {
			break
		}
		// After the clock lands on t, the event at t is in the ring:
		// if it was on the far list, the base advance just migrated it.
		e.setNow(t)
		for e.ringN > 0 {
			bk := e.ringHead()
			v := &bk.evs[bk.head]
			if bk.at(v.key) != t {
				break
			}
			// Consumed: drop its references (the line is hot), so what
			// the caller scheduled is collectable once it has run.
			fn, arg := v.fn, v.arg
			v.fn, v.arg = nil, nil
			bk.head++
			e.ringN--
			e.fired++
			fn(arg)
		}
	}
}
