package sim

import (
	"sort"
	"testing"
)

// FuzzEngineMatchesSortedSlice is the differential oracle for the event
// queue: a byte-driven op stream runs once against the Engine and once
// against refQueue — the engine's contract implemented as a slice kept
// sorted by (at, seq) — and the two must agree on the fire order and on
// Now, Fired, Pending, NextAt and every handle's Stopped after every
// op. Nothing in the reference knows about slots, rings or horizons,
// so any layout of the real queue that changes an observable fails it.
//
// A script is a sequence of 4-byte ops {op, cls, j, x}: op%12 picks the
// call (see fuzzDriver.step), (cls, j) name a deadline (see
// fuzzDriver.deadline: past, now, sub-slot, in-ring, one slot either
// side of the 128- and 256-slot marks both absolute and relative to
// the clock, seconds, minutes), and x picks what the callback does
// when it fires (see fuzzDriver.fire). Regenerate nothing: the corpus
// under testdata/fuzz is hand-assembled from these ops.
//
// The key-* scripts hold the orders a same-instant tie-break by bucket
// position (rather than by a queue-wide sequence number) has to get
// right: far-then-direct-after-advance and -in-callback tie events
// that waited on the far list with later direct pushes at the same
// instant of the same slot, the push made after an AdvanceTo and from a
// callback of the step that migrated; insert-while-consuming re-arms
// three same-instant events into the bucket being consumed, onto an
// instant where one already waits; epoch-jump-then-direct lands a
// 14-epoch AdvanceTo on a far event and pushes at that instant;
// cancelled-between-plain pops cancelled At timers between plain
// events (Fired must skip them); every-cancels-itself ends series from
// their own callbacks, near and on the far list.
//
// The radix-* scripts put same-instant ties into buckets large enough
// for the radix sort (see burstOffsets): ties-consumed runs into such a
// bucket and bursts into it again, onto the instant being consumed; ties-far ties migrated far events with direct pushes made
// after the advance; cutoff fills buckets of 16 and 17 entries.

// fuzzHandle is the part of Timer the driver uses.
type fuzzHandle interface {
	Cancel()
	Stopped() bool
}

// fuzzQueue is the engine surface under test.
type fuzzQueue interface {
	Now() Time
	Fired() uint64
	Pending() int
	NextAt() (Time, bool)
	Schedule(t Time, fn func())
	ScheduleArg(t Time, fn func(any), arg any)
	At(t Time, fn func()) fuzzHandle
	After(d Duration, fn func()) fuzzHandle
	Every(period Duration, fn func()) fuzzHandle
	Run(until Time) Time
	RunBefore(end Time)
	AdvanceTo(t Time)
}

// engineQueue adapts *Engine: only the Timer-returning calls need it.
type engineQueue struct{ *Engine }

func (q engineQueue) At(t Time, fn func()) fuzzHandle        { return q.Engine.At(t, fn) }
func (q engineQueue) After(d Duration, fn func()) fuzzHandle { return q.Engine.After(d, fn) }
func (q engineQueue) Every(p Duration, fn func()) fuzzHandle { return q.Engine.Every(p, fn) }

// refTimer is a handle of the reference queue. One per timer, never
// recycled, so a stale handle is simply one whose timer is done.
type refTimer struct{ done, cancelled bool }

func (t *refTimer) Cancel() {
	if !t.done {
		t.cancelled = true
	}
}
func (t *refTimer) Stopped() bool { return t.done || t.cancelled }

type refEv struct {
	at     Time
	fn     func()
	afn    func(any)
	arg    any
	tm     *refTimer
	period Duration
}

// refQueue is the reference: q is sorted by (at, seq). Sequence numbers
// only ever grow, so inserting after every entry with at <= the new
// event's keeps that order without storing them.
type refQueue struct {
	now   Time
	q     []refEv
	fired uint64
}

func (r *refQueue) Now() Time     { return r.now }
func (r *refQueue) Fired() uint64 { return r.fired }
func (r *refQueue) Pending() int  { return len(r.q) }

func (r *refQueue) NextAt() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

func (r *refQueue) push(v refEv) {
	if v.at < r.now {
		v.at = r.now
	}
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > v.at })
	r.q = append(r.q, refEv{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = v
}

func (r *refQueue) Schedule(t Time, fn func()) { r.push(refEv{at: t, fn: fn}) }
func (r *refQueue) ScheduleArg(t Time, fn func(any), arg any) {
	r.push(refEv{at: t, afn: fn, arg: arg})
}
func (r *refQueue) At(t Time, fn func()) fuzzHandle {
	tm := &refTimer{}
	r.push(refEv{at: t, fn: fn, tm: tm})
	return tm
}
func (r *refQueue) After(d Duration, fn func()) fuzzHandle { return r.At(r.now+d, fn) }
func (r *refQueue) Every(p Duration, fn func()) fuzzHandle {
	tm := &refTimer{}
	r.push(refEv{at: r.now + p, fn: fn, tm: tm, period: p})
	return tm
}

func (r *refQueue) exec(limit Time, strict bool) {
	for len(r.q) > 0 {
		v := r.q[0]
		if v.at > limit || (strict && v.at == limit) {
			return
		}
		r.q = r.q[1:]
		r.now = v.at
		if v.tm != nil {
			if v.tm.cancelled {
				v.tm.done = true
				continue
			}
			if v.period <= 0 {
				v.tm.done = true
			}
		}
		r.fired++
		if v.fn != nil {
			v.fn()
		} else {
			v.afn(v.arg)
		}
		if v.period > 0 {
			if v.tm.cancelled {
				v.tm.done = true
			} else {
				v.at = r.now + v.period
				r.push(v)
			}
		}
	}
}

func (r *refQueue) Run(until Time) Time {
	r.exec(until, false)
	if r.now < until {
		r.now = until
	}
	return r.now
}
func (r *refQueue) RunBefore(end Time) { r.exec(end, true) }
func (r *refQueue) AdvanceTo(t Time) {
	if r.now < t {
		r.now = t
	}
}

// fuzzRec is one trace entry: a fire, a state observation, a handle's
// Stopped bit. Traces of the two queues are compared element-wise.
type fuzzRec struct {
	kind    byte
	a, b, c int64
}

// fuzzCB is one scheduled callback and what it does on firing.
type fuzzCB struct {
	id          int
	beh, cls, j byte
	left        int        // re-arms (beh 2) or ticks (periodic) remaining
	h           fuzzHandle // own handle, for At/After/Every
	periodic    bool
}

type fuzzDriver struct {
	q       fuzzQueue
	trace   []fuzzRec
	handles []fuzzHandle
	ids     int
}

const slotNs = Time(1) << slotShift

// burstOffsets, indexed by x>>6 of a burst, is the set of in-slot
// offsets its events take: none (0) spreads them over two slots, one
// instant each; the others put up to 65 events on at most four
// instants of one slot, on both sides of the radix sort's digit
// boundaries (bits 6|7 and 12|13), so same-instant ties from many push
// positions reach a bucket too large for the insertion sort.
var burstOffsets = [4][]Time{
	nil,
	{0, slotMask},
	{127, 128, 8191, 8192},
	{slotMask, 8192, 128, 0},
}

// deadline maps (cls, j) to an absolute time around the current clock.
// Offsets come from small sets so exact-time ties between events
// pushed at different clock positions are common.
func (d *fuzzDriver) deadline(cls, j byte) Time {
	now := d.q.Now()
	slot := int64(now) >> slotShift
	off := [4]Time{0, 1, slotNs / 2, slotNs - 1}
	switch cls % 10 {
	case 0: // past: clamps to now
		return now - Time(j)*Microsecond - 1
	case 1: // current instant
		return now
	case 2: // sub-slot
		return now + Time(j)*2*Microsecond
	case 3: // in-ring, up to 64 ms
		return now + (Time(j)+1)*250*Microsecond
	case 4, 5, 6: // absolute: one slot either side of an epoch start
		s := (slot/128+int64(cls%10)-3)*128 + int64(j%3) - 1
		return Time(s)<<slotShift + off[j/3%4]
	case 7: // relative: one slot either side of 128 and 256 slots out
		s := slot + 128<<(j&1) + int64(j>>1%3) - 1
		return Time(s)<<slotShift + off[j>>3%4]
	case 8: // seconds
		return now + Time(1+j%16)*Second + Time(j>>4)*slotNs
	default: // beyond a minute
		return now + 60*Second + Time(j)*Second
	}
}

func (d *fuzzDriver) newCB(beh, cls, j byte) *fuzzCB {
	d.ids++
	return &fuzzCB{id: d.ids, beh: beh, cls: cls, j: j, left: int(j%4) + 1}
}

// fire is every callback: log, then act on the queue from inside the
// dispatch loop.
func (d *fuzzDriver) fire(c *fuzzCB) {
	d.trace = append(d.trace, fuzzRec{'f', int64(c.id), int64(d.q.Now()), 0})
	switch c.beh % 8 {
	case 1: // same instant: joins the tail of the running batch
		k := d.newCB(0, 0, 0)
		d.q.Schedule(d.q.Now(), func() { d.fire(k) })
	case 2: // re-arm self
		if !c.periodic && c.left > 0 {
			c.left--
			d.q.Schedule(d.deadline(c.cls, c.j), func() { d.fire(c) })
		}
	case 3: // cancel some other (possibly stale, possibly own) handle
		if n := len(d.handles); n > 0 {
			d.handles[int(c.j)%n].Cancel()
		}
	case 4: // no-op: this slot stopped the run while Engine had Stop
	case 5: // cancellable child
		k := d.newCB(0, 0, 0)
		k.h = d.q.At(d.deadline(c.cls, c.j), func() { d.fire(k) })
		d.handles = append(d.handles, k.h)
	case 6:
		d.q.ScheduleArg(d.q.Now(), d.fireArg, d.newCB(0, 0, 0))
	case 7: // cancel self: a no-op for a one-shot, ends a series
		if c.h != nil {
			c.h.Cancel()
		}
	}
	if c.periodic {
		if c.left--; c.left <= 0 {
			c.h.Cancel() // bounds every series
		}
	}
}

func (d *fuzzDriver) fireArg(a any) { d.fire(a.(*fuzzCB)) }

// step applies one op and records what the queue then reports.
func (d *fuzzDriver) step(op, cls, j, x byte) {
	q := d.q
	at := d.deadline(cls, j)
	c := d.newCB(x, j, cls) // callback deadlines reuse the bytes, swapped
	fn := func() { d.fire(c) }
	switch op % 12 {
	case 0:
		q.Schedule(at, fn)
	case 1:
		q.ScheduleArg(at, d.fireArg, c)
	case 2:
		c.h = q.At(at, fn)
		d.handles = append(d.handles, c.h)
	case 3:
		c.h = q.After(at-q.Now(), fn)
		d.handles = append(d.handles, c.h)
	case 4:
		p := at - q.Now()
		if p < 1 {
			p = Duration(j) + 1
		}
		c.periodic, c.left = true, int(x>>3)+1
		c.h = q.Every(p, fn)
		d.handles = append(d.handles, c.h)
	case 5:
		if n := len(d.handles); n > 0 {
			d.handles[int(x)%n].Cancel()
		}
	case 6:
		d.trace = append(d.trace, fuzzRec{'r', int64(q.Run(at)), 0, 0})
	case 7:
		q.RunBefore(at)
	case 8: // AdvanceTo's contract: never past a queued event
		if next, ok := q.NextAt(); ok && next < at {
			at = next
		}
		q.AdvanceTo(at)
	case 9: // no-op: this slot stopped the run while Engine had Stop
	case 10: // one barrier round of the sharded runner
		q.RunBefore(at)
		if next, ok := q.NextAt(); !ok || next >= at {
			q.AdvanceTo(at)
		}
	case 11: // burst: enough events per bucket to leave insertion sort
		offs := burstOffsets[x>>6]
		for i := 0; i < int(x%64)+2; i++ {
			k := d.newCB(0, 0, 0)
			h := uint32(i) * 2654435761
			t := at + Time(h>>12)%(2*slotNs)
			if offs != nil { // ties: few offsets within at's slot
				t = at&^slotMask | offs[h>>28%uint32(len(offs))]
			}
			q.Schedule(t, func() { d.fire(k) })
		}
	}
	now, fired, pending := q.Now(), q.Fired(), q.Pending()
	next, ok := q.NextAt()
	if q.Now() != now || q.Fired() != fired || q.Pending() != pending {
		d.trace = append(d.trace, fuzzRec{'!', int64(q.Now()), int64(q.Fired()), int64(q.Pending())})
	}
	if !ok {
		next = -1
	}
	d.trace = append(d.trace, fuzzRec{'s', int64(now), int64(fired), int64(pending)}, fuzzRec{'n', int64(next), 0, 0})
	for i, h := range d.handles {
		if h.Stopped() {
			d.trace = append(d.trace, fuzzRec{'h', int64(i), 0, 0})
		}
	}
}

func fuzzTrace(q fuzzQueue, script []byte) []fuzzRec {
	d := &fuzzDriver{q: q}
	for ; len(script) >= 4; script = script[4:] {
		d.step(script[0], script[1], script[2], script[3])
	}
	d.trace = append(d.trace, fuzzRec{'r', int64(q.Run(q.Now() + 1000*Second)), 0, 0})
	d.trace = append(d.trace, fuzzRec{'s', int64(q.Now()), int64(q.Fired()), int64(q.Pending())})
	return d.trace
}

func FuzzEngineMatchesSortedSlice(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 7, 1, 2, 8, 2, 0, 5, 0, 0, 0, 6, 9, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4*256 {
			script = script[:4*256]
		}
		got := fuzzTrace(engineQueue{NewEngine(1)}, script)
		want := fuzzTrace(&refQueue{}, script)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("trace[%d]: engine %c%v, sorted slice %c%v", i,
					got[i].kind, []int64{got[i].a, got[i].b, got[i].c},
					want[i].kind, []int64{want[i].a, want[i].b, want[i].c})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("engine trace has %d records, sorted slice %d", len(got), len(want))
		}
	})
}
