// Package workload is the payload-agnostic source layer of the
// simulator: it owns packet generation — which sequence numbers exist,
// how large they are, and when they are emitted — so that every
// protocol (Bullet, the plain streamer, push gossip, anti-entropy)
// disseminates the *same* workload instead of each hardwiring its own
// constant-rate pump. The paper motivates the mesh with data
// dissemination in general (§2.1): digital-fountain file distribution
// as much as constant-rate streaming. This package provides both, plus
// bursty and schedule-driven variable rates.
//
// Sources must be pure functions of (config, seed): Next may consult
// only its receiver's configuration and its arguments, never
// wall-clock time or unseeded randomness, so a run remains a pure
// function of (config, seed) end to end.
package workload

import "bullet/internal/sim"

// Source generates a run's packet stream. For emission index seq at
// virtual time now it returns the payload size in bytes and the gap
// until the next emission. A size of 0 emits nothing at this instant
// (the pump just waits gap — how on/off sources express silence), and
// ok=false ends the stream for good (finite workloads).
type Source interface {
	// Name identifies the workload kind ("cbr", "vbr", "file", ...).
	Name() string
	// Next returns the seq'th emission: payload size, the gap until
	// the next emission, and whether the stream continues.
	Next(now sim.Time, seq uint64) (size int, gap sim.Duration, ok bool)
}

// Stream is what every protocol's source streams, and the whole config
// of the streamer and both epidemic baselines (Bullet's embeds it).
type Stream struct {
	// RateKbps is the source streaming rate.
	RateKbps float64
	// PacketSize is the application payload per packet in bytes
	// (default 1500).
	PacketSize int
	// Start is when the source begins streaming.
	Start sim.Time
	// Duration is how long the source streams.
	Duration sim.Duration
	// Workload overrides the default constant-bit-rate source (nil
	// streams CBR at RateKbps/PacketSize).
	Workload Source
}

// Completer is implemented by finite workloads: Target is the number
// of distinct packets at which a node has the whole object (for
// fountain-coded files, ceil((1+ε)·k) symbols — no specific packet is
// ever required).
type Completer interface {
	Target() uint64
}

// Interval converts a bit rate and packet size to the emission gap of
// a constant-rate source. This is the one shared, rounding-stable
// bytesPerSec→interval conversion: every protocol's pre-workload pump
// computed exactly this float64 expression privately, so Interval is
// pinned by test to stay bit-identical to it — any drift here shifts
// every golden trace.
func Interval(rateKbps float64, packetSize int) sim.Duration {
	bytesPerSec := rateKbps * 1000 / 8
	interval := sim.Duration(float64(packetSize) / bytesPerSec * float64(sim.Second))
	if interval < sim.Microsecond {
		interval = sim.Microsecond
	}
	return interval
}

// Pump drives src on eng — the scheduler of the node that owns the
// source (its shard engine in a sharded run): the first tick fires at
// start, and every tick re-schedules the next one after the gap the
// source returns. stop is the protocol's end condition (duration
// elapsed, source endpoint failed, deployment stopped) and is
// consulted at each tick before the source is; emit hands each
// generated packet to the protocol's ingestion path. The tick order —
// stop check, emit, re-schedule — is exactly the order of the private
// pumps this replaces, so a CBR source reproduces their event sequence
// bit-for-bit.
func Pump(eng *sim.Engine, src Source, start sim.Time, stop func() bool, emit func(seq uint64, size int)) {
	var seq uint64
	var tick func()
	tick = func() {
		if stop() {
			return
		}
		size, gap, ok := src.Next(eng.Now(), seq)
		if !ok {
			return
		}
		if size > 0 {
			emit(seq, size)
			seq++
		}
		if gap < sim.Microsecond {
			// Guard against zero/negative gaps from misconfigured
			// sources: a same-instant reschedule would spin forever.
			gap = sim.Microsecond
		}
		eng.ScheduleAfter(gap, tick)
	}
	eng.Schedule(start, tick)
}
