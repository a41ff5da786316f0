// Package member is the membership runtime every protocol system
// shares. A Roster owns the participant table, the crashed set, the
// membership epoch, the stopped flag and the attached adversary fleet,
// and implements the validation and bookkeeping of Crash, Restart,
// Join and Stop once, so that "crash", "restart" and "join" mean the
// same thing — same preconditions, same errors, same epoch accounting,
// same ascending-id order — under every protocol. A protocol embeds a
// Roster and supplies only its repair policy: what reviving a crashed
// node or admitting a new one does to its own wiring. The Roster also
// holds the deploy prologue (Init) and the source pump every protocol
// shares, and the handle accessors (Protocol, Collector, Workload,
// Tree, Nodes, Colluders), so a protocol system is its own deployment
// handle.
package member

import (
	"fmt"
	"slices"

	"bullet/internal/adversary"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/transport"
	"bullet/internal/workload"
)

// Node is what a roster needs from a participant: the transport
// endpoint that Crash, Fail and Stop take offline.
type Node interface {
	Endpoint() *transport.Endpoint
}

// TreeRoot, as Init's source, names the tree's root: the source of
// every tree protocol.
const TreeRoot = -1

// Roster is one deployment's membership state and the handle callers
// get: its name, network, collector, workload and tree. The zero value
// is not usable; call Init first. Every walk over the table (Nodes,
// Stop, Members.Range) is in ascending id order. The epoch counts
// successful Crash, Restart and Join operations; an operation that
// returns an error changes nothing.
type Roster[N Node] struct {
	// Members is the dense participant table, crashed nodes included:
	// lookups are a slice index. Protocols Put the instances they build
	// (Bullet restarts a node as a fresh one); only the roster decides
	// which of them are live.
	Members nodeset.Table[N]
	// Net is the network the deployment runs in.
	Net *netem.Network
	// Col is the metrics sink: the per-packet paths read the field,
	// Collector returns it to everyone else.
	Col *metrics.Collector
	// Stream is the deployment's stream, packet-size default applied.
	Stream workload.Stream

	name       string // prefixes every membership error ("gossip: node 7 already crashed")
	src        workload.Source
	source     int
	tree       *overlay.Tree // nil for mesh-only protocols
	joinDegree int

	dead    nodeset.Set
	epoch   int
	stopped bool

	// adv, when non-nil, is the attached hostile-peer fleet. It stays
	// dormant until Strike; the Refuses* guards are one nil check on
	// the clean path, so a run without an adversary executes exactly
	// as if the hooks did not exist.
	adv *adversary.Fleet
}

// Init is the prologue every protocol's deploy shares: the deployment
// name, the network, the source (TreeRoot for tree protocols), the
// distribution tree late joiners attach to (nil for mesh-only
// protocols), the collector and the stream. It defaults the packet
// size to 1500 bytes, rejects a stream with neither a rate nor a
// workload and a TreeRoot source without a tree, and arms the
// collector's completion tracking for a finite workload. The join
// degree bound is max(2, the deployed tree's largest degree).
func (r *Roster[N]) Init(name string, net *netem.Network, source int, tree *overlay.Tree, col *metrics.Collector, s workload.Stream) error {
	if source == TreeRoot {
		if tree == nil {
			return fmt.Errorf("%s: needs a tree", name)
		}
		source = tree.Root
	}
	if s.Workload == nil && s.RateKbps <= 0 {
		return fmt.Errorf("%s: rate %v Kbps", name, s.RateKbps)
	}
	if s.PacketSize <= 0 {
		s.PacketSize = 1500
	}
	r.name, r.Net, r.Col, r.Stream = name, net, col, s
	r.source, r.tree = source, tree
	if tree != nil {
		r.joinDegree = max(2, tree.MaxDegree())
	}
	r.src = s.Workload
	if r.src == nil {
		r.src = workload.CBR{RateKbps: s.RateKbps, PacketSize: s.PacketSize}
	}
	if c, ok := r.src.(workload.Completer); ok {
		col.SetCompletionTarget(c.Target())
	}
	return nil
}

// Pump drives the workload on the source node's own scheduler from
// the stream's Start until its Duration has elapsed, the deployment
// stops, or halt (nil for none) reports true; emit hands each packet
// to the protocol's ingestion path. Call it once the source is in
// Members.
func (r *Roster[N]) Pump(halt func() bool, emit func(seq uint64, size int)) {
	sched := r.Members.At(r.source).Endpoint().Scheduler()
	end := r.Stream.Start + r.Stream.Duration
	workload.Pump(sched, r.src, r.Stream.Start,
		func() bool { return sched.Now() >= end || r.stopped || halt != nil && halt() },
		emit)
}

// Protocol returns the deployment's name.
func (r *Roster[N]) Protocol() string { return r.name }

// Collector returns the metrics sink.
func (r *Roster[N]) Collector() *metrics.Collector { return r.Col }

// Workload returns the source driving packet generation: the stream's
// Workload, or CBR at its rate.
func (r *Roster[N]) Workload() workload.Source { return r.src }

// Tree returns the distribution tree (live: membership changes mutate
// it), or nil for mesh-only protocols.
func (r *Roster[N]) Tree() *overlay.Tree { return r.tree }

// Crashed reports whether id is a crashed participant.
func (r *Roster[N]) Crashed(id int) bool { return r.dead.Contains(id) }

// Live reports whether id is a current, non-crashed participant.
func (r *Roster[N]) Live(id int) bool { return r.Members.Contains(id) && !r.dead.Contains(id) }

// Nodes returns the ids of current non-crashed participants in
// ascending order.
func (r *Roster[N]) Nodes() []int {
	out := make([]int, 0, r.Members.Len())
	r.Members.Range(func(id int, _ N) bool {
		if !r.dead.Contains(id) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// MemberEpoch returns the number of membership changes (crashes,
// restarts, joins) applied so far.
func (r *Roster[N]) MemberEpoch() int { return r.epoch }

// Fail takes id's endpoint offline without any membership bookkeeping:
// the silent failure the paper's worst-case experiments inject.
func (r *Roster[N]) Fail(id int) {
	if n, ok := r.Members.Get(id); ok {
		n.Endpoint().Fail()
	}
}

// Crash fails participant id: its endpoint goes offline and it counts
// as dead until Restart. The source cannot crash.
func (r *Roster[N]) Crash(id int) error {
	n, ok := r.Members.Get(id)
	switch {
	case !ok:
		return fmt.Errorf("%s: node %d is not a participant", r.name, id)
	case r.dead.Contains(id):
		return fmt.Errorf("%s: node %d already crashed", r.name, id)
	case id == r.source:
		return fmt.Errorf("%s: cannot crash the source %d", r.name, id)
	}
	n.Endpoint().Fail()
	r.dead.Add(id)
	r.epoch++
	return nil
}

// Restart brings crashed participant id back. revive is the protocol's
// policy — restart the endpoint and reopen flows in place, or rejoin
// as a fresh instance — and runs while id still counts as dead; if it
// fails the node stays crashed so a later Restart can retry.
func (r *Roster[N]) Restart(id int, revive func(n N) error) error {
	n, ok := r.Members.Get(id)
	if !ok || !r.dead.Contains(id) {
		return fmt.Errorf("%s: node %d is not crashed", r.name, id)
	}
	if err := revive(n); err != nil {
		return err
	}
	r.dead.Remove(id)
	r.epoch++
	return nil
}

// Join admits a brand-new participant. id must name a topology node
// that never was a participant (a crashed one uses Restart). admit is
// the protocol's policy: build the node, Put it in Members, wire it in.
func (r *Roster[N]) Join(id int, admit func() error) error {
	switch {
	case id < 0 || id >= len(r.Net.Graph().Nodes):
		return fmt.Errorf("%s: node %d is not in the topology", r.name, id)
	case r.dead.Contains(id):
		return fmt.Errorf("%s: node %d crashed; use Restart", r.name, id)
	case r.Members.Contains(id):
		return fmt.Errorf("%s: node %d is already a participant", r.name, id)
	}
	if err := admit(); err != nil {
		return err
	}
	r.epoch++
	return nil
}

// Attach hangs id under the tree's deterministic join point — the
// first node in breadth-first order with spare degree that actually
// receives the stream: itself and every ancestor up to the root live,
// not merely alive inside an orphaned or not-yet-repaired subtree —
// and returns that parent.
func (r *Roster[N]) Attach(id int) (int, error) {
	up := func(n int) bool { return !r.dead.Contains(n) }
	ap := r.tree.AttachPoint(r.joinDegree, func(n int) bool { return r.tree.ConnectedToRoot(n, up) })
	if ap < 0 {
		return -1, fmt.Errorf("%s: no live attach point for node %d", r.name, id)
	}
	return ap, r.tree.Attach(id, ap)
}

// Stopped reports whether Stop was called; source pumps poll it.
func (r *Roster[N]) Stopped() bool { return r.stopped }

// Stop tears the deployment down: the source halts and every live
// endpoint goes offline, in ascending id order. Idempotent.
func (r *Roster[N]) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.Members.Range(func(id int, n N) bool {
		if !r.dead.Contains(id) {
			n.Endpoint().Fail()
		}
		return true
	})
}

// SetAdversary attaches fleet to the deployment; nil or a None fleet
// detaches.
func (r *Roster[N]) SetAdversary(f *adversary.Fleet) {
	if f != nil && f.Model() == adversary.None {
		f = nil
	}
	r.adv = f
}

// Adversary returns the attached fleet, or nil.
func (r *Roster[N]) Adversary() *adversary.Fleet { return r.adv }

// Colluders returns a copy of the fleet's compromised ids in ascending
// order, or nil without a fleet.
func (r *Roster[N]) Colluders() []int {
	if r.adv == nil {
		return nil
	}
	return slices.Clone(r.adv.Colluders())
}

// Compromise adds nodes to the fleet's colluder set (scenario action
// CompromiseNodes). No-op without an attached fleet.
func (r *Roster[N]) Compromise(nodes []int) {
	if r.adv != nil {
		r.adv.Compromise(nodes)
	}
}

// Strike activates the fleet (scenario action AdversaryAt): colluders'
// Refuses* guards flip. Protocols with more attack surface than the
// guards add it on top.
func (r *Roster[N]) Strike() {
	if r.adv != nil {
		r.adv.Activate()
	}
}

// StrikeCrashes is Strike for a protocol with a tree to attack: after
// activating the fleet it runs the model's crash timing, if it has
// any, through the protocol's own crash and restart, so each victim
// gets that protocol's repair policy. Cutvertex crashes the heaviest
// live cut vertices within its budget and records them as colluders;
// Joinstorm crashes every live colluder and schedules its restart a
// seeded dwell later. Calling it again repeats the burst (and
// re-crashes recovered cut vertices), so a schedule of AdversaryAt
// actions is a sustained attack. Colluders iterate in ascending id
// order and all draws come from the fleet stream, so a strike is a
// pure function of (seed, schedule).
func (r *Roster[N]) StrikeCrashes(sched *sim.Engine, crash, restart func(id int) error) {
	r.Strike()
	if r.adv == nil {
		return
	}
	switch r.adv.Model() {
	case adversary.Cutvertex:
		victims := adversary.CutSet(r.tree, r.Live, r.adv.Budget())
		r.adv.Compromise(victims)
		for _, v := range victims {
			_ = crash(v)
		}
	case adversary.Joinstorm:
		for _, id := range r.adv.Colluders() {
			if !r.Live(id) || crash(id) != nil {
				continue
			}
			sched.ScheduleAfter(r.adv.Dwell(id), func() { _ = restart(id) })
		}
	}
}

// RefusesServe gates every mesh/recovery serving path.
func (r *Roster[N]) RefusesServe(id int) bool { return r.adv != nil && r.adv.RefusesServe(id) }

// RefusesRelay gates forwarding to tree children.
func (r *Roster[N]) RefusesRelay(id int) bool { return r.adv != nil && r.adv.RefusesRelay(id) }
