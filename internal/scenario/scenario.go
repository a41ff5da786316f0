// Package scenario provides declarative schedules of timed network
// events — link failures and repairs, bandwidth/latency/loss changes,
// partitions, ramps, and periodic oscillations — that replay
// deterministically on the simulation engine.
//
// A Schedule is built up-front from pure data (times and actions), then
// installed once on an engine/graph pair. Because every event is
// scheduled at install time with a fixed virtual timestamp and the
// engine fires same-instant events in scheduling order, a run with a
// scenario remains a pure function of (config, seed, schedule). An
// empty schedule installs nothing and leaves the run byte-identical to
// one without a scenario.
//
//	s := scenario.New().
//	    At(30*sim.Second, scenario.FailLink(lid)).
//	    At(60*sim.Second, scenario.RestoreLink(lid)).
//	    Ramp(80*sim.Second, 20*sim.Second, 10, func(frac float64) scenario.Action {
//	        return scenario.SetBandwidth(other, 4000-3000*frac)
//	    })
//	s.Install(&scenario.Env{Eng: eng, G: g})
package scenario

import (
	"sort"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// Membership is the overlay-churn half of a scenario environment:
// anything that can crash, restart, and admit participants at runtime
// (a deployed protocol system, or a fan-out over several of them).
// Implementations must be deterministic; errors (e.g. crashing an
// already-crashed node) are reported to the caller of the membership
// operation and ignored by scenario actions.
type Membership interface {
	Crash(node int) error
	Restart(node int) error
	Join(node int) error
}

// Adversary is the hostile-peer half of a scenario environment:
// anything that can extend a compromised set and fire an attack (a
// deployed protocol system with an attached adversary fleet, or a
// fan-out over several). Implementations must be deterministic; a
// deployment without a configured adversary treats both as no-ops.
type Adversary interface {
	Compromise(nodes []int)
	Strike()
}

// Env is what actions act upon: the simulation engine that carries
// virtual time, the graph whose link state network actions mutate, and
// (optionally) the deployment membership churn actions act on and the
// adversary fleet attack actions drive. A nil M makes every membership
// action a no-op, and a nil A every adversary action, so link-only
// schedules work unchanged.
type Env struct {
	Eng *sim.Engine
	G   *topology.Graph
	M   Membership
	A   Adversary
}

// Action is one atomic network mutation. Actions must be deterministic:
// they may read and mutate Env state but must not consult wall-clock
// time or unseeded randomness.
type Action func(env *Env)

// FailLink takes the link down (routing avoids it; traversing packets
// are dropped).
func FailLink(link int) Action {
	return func(env *Env) { env.G.FailLink(link) }
}

// RestoreLink brings a failed link back up.
func RestoreLink(link int) Action {
	return func(env *Env) { env.G.RestoreLink(link) }
}

// SetBandwidth sets the link capacity in Kbps (per direction).
// kbps <= 0 is ignored; use FailLink to take a link out of service.
func SetBandwidth(link int, kbps float64) Action {
	return func(env *Env) { env.G.SetBandwidth(link, kbps) }
}

// ScaleBandwidth multiplies the link capacity by factor.
func ScaleBandwidth(link int, factor float64) Action {
	return func(env *Env) { env.G.ScaleBandwidth(link, factor) }
}

// SetLatency sets the link propagation delay. d <= 0 is ignored: link
// delays stay positive.
func SetLatency(link int, d sim.Duration) Action {
	return func(env *Env) { env.G.SetLatency(link, d) }
}

// SetLoss sets the link's independent per-packet loss probability.
func SetLoss(link int, loss float64) Action {
	return func(env *Env) { env.G.SetLoss(link, loss) }
}

// Partition cuts the node set off from the rest of the network by
// failing every crossing link.
func Partition(nodes ...int) Action {
	ns := append([]int(nil), nodes...)
	return func(env *Env) { env.G.Partition(ns) }
}

// Heal restores every link failed by Partition.
func Heal() Action {
	return func(env *Env) { env.G.Heal() }
}

// Func wraps an arbitrary deterministic function as an Action, for
// mutations the stock vocabulary does not cover.
func Func(fn func(env *Env)) Action { return fn }

// CrashNode crashes an overlay participant mid-run (no-op without a
// Membership in the Env). What happens next is protocol-defined:
// Bullet re-parents the orphans and re-installs Bloom filters at live
// peers after its failover delay; the plain streamer's subtree simply
// starves.
func CrashNode(node int) Action {
	return func(env *Env) {
		if env.M != nil {
			_ = env.M.Crash(node)
		}
	}
}

// RestartNode brings a crashed participant back (no-op without a
// Membership in the Env).
func RestartNode(node int) Action {
	return func(env *Env) {
		if env.M != nil {
			_ = env.M.Restart(node)
		}
	}
}

// JoinNode admits a brand-new participant mid-run (no-op without a
// Membership in the Env).
func JoinNode(node int) Action {
	return func(env *Env) {
		if env.M != nil {
			_ = env.M.Join(node)
		}
	}
}

// ChurnNodes crashes the whole node set at one instant — the paper's
// mass-failure workload (e.g. "kill 25% of the overlay mid-stream").
func ChurnNodes(nodes ...int) Action {
	ns := append([]int(nil), nodes...)
	return func(env *Env) {
		if env.M == nil {
			return
		}
		for _, n := range ns {
			_ = env.M.Crash(n)
		}
	}
}

// CompromiseNodes adds the nodes to the adversary's colluder set
// (no-op without an Adversary in the Env). Compromising is silent:
// behavior only turns hostile once AdversaryAt strikes.
func CompromiseNodes(nodes ...int) Action {
	ns := append([]int(nil), nodes...)
	return func(env *Env) {
		if env.A != nil {
			env.A.Compromise(ns)
		}
	}
}

// AdversaryAt fires the configured adversary's strike (no-op without
// an Adversary in the Env). Leeching models flip hostile and stay so;
// for the crash-timing models each strike is one attack wave, so
// scheduling several AdversaryAt actions sustains the assault.
func AdversaryAt() Action {
	return func(env *Env) {
		if env.A != nil {
			env.A.Strike()
		}
	}
}

// event is one scheduled batch of actions.
type event struct {
	at      sim.Time
	seq     int // insertion order; tie-break for same-instant events
	actions []Action
}

// Schedule is an ordered set of timed events. The zero value is not
// usable; construct with New. Builder methods return the schedule for
// chaining and may be called in any order: Install sorts events by
// (time, insertion order).
type Schedule struct {
	events []event
}

// New returns an empty schedule.
func New() *Schedule { return &Schedule{} }

// At schedules the actions to run atomically at virtual time t.
func (s *Schedule) At(t sim.Time, actions ...Action) *Schedule {
	s.events = append(s.events, event{at: t, seq: len(s.events), actions: actions})
	return s
}

// Ramp schedules steps+1 events evenly spread over [start, start+dur];
// the i'th event applies fn(i/steps), so frac runs 0..1 inclusive. Use
// it for gradual changes (bandwidth drains, latency creep).
func (s *Schedule) Ramp(start sim.Time, dur sim.Duration, steps int, fn func(frac float64) Action) *Schedule {
	if steps < 1 {
		steps = 1
	}
	for i := 0; i <= steps; i++ {
		frac := float64(i) / float64(steps)
		s.At(start+sim.Duration(float64(dur)*frac), fn(frac))
	}
	return s
}

// Oscillate alternates between action a (applied at start and every
// full period after) and action b (applied half a period later), for
// the given number of cycles. Use it for flapping links or oscillating
// bottlenecks:
//
//	s.Oscillate(60*sim.Second, 20*sim.Second, 5,
//	    scenario.SetBandwidth(lid, 500), scenario.SetBandwidth(lid, 4000))
func (s *Schedule) Oscillate(start sim.Time, period sim.Duration, cycles int, a, b Action) *Schedule {
	for c := 0; c < cycles; c++ {
		t := start + sim.Duration(c)*period
		s.At(t, a)
		s.At(t+period/2, b)
	}
	return s
}

// Churn schedules a rolling crash/restart wave: starting at start, one
// node of nodes crashes every interval (in the given order), and each
// crashed node restarts downFor after its crash. With downFor <= 0
// nodes never come back. Composes freely with link dynamics on the
// same schedule.
func (s *Schedule) Churn(start sim.Time, interval, downFor sim.Duration, nodes ...int) *Schedule {
	for i, n := range nodes {
		at := start + sim.Duration(i)*interval
		s.At(at, CrashNode(n))
		if downFor > 0 {
			s.At(at+downFor, RestartNode(n))
		}
	}
	return s
}

// Install schedules every event on the environment's engine. Events
// fire in (time, insertion order); an event scheduled in the past runs
// at the current instant. Install may be called once per schedule per
// run; installing the same schedule into several independent worlds
// (e.g. a Bullet run and a baseline run over identical topologies) is
// the intended way to compare protocols under identical dynamics.
func (s *Schedule) Install(env *Env) {
	evs := append([]event(nil), s.events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	for i := range evs {
		ev := evs[i]
		env.Eng.Schedule(ev.at, func() {
			for _, a := range ev.actions {
				a(env)
			}
		})
	}
}
