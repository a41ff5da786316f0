// Package member is the membership runtime every protocol system
// shares. A Roster owns the participant table, the crashed set, the
// membership epoch, the stopped flag and the attached adversary fleet,
// and implements the validation and bookkeeping of Crash, Restart,
// Join and Stop once, so that "crash", "restart" and "join" mean the
// same thing — same preconditions, same errors, same epoch accounting,
// same ascending-id order — under every protocol. A protocol embeds a
// Roster and supplies only its repair policy: what reviving a crashed
// node or admitting a new one does to its own wiring.
package member

import (
	"fmt"
	"sort"

	"bullet/internal/adversary"
	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/transport"
)

// SortedIDs returns the keys of m in ascending order. Per-node state
// belongs in nodeset containers (CONTRIBUTING rule 9); this is the
// escape hatch for genuinely sparse, non-node-id-keyed maps, whose
// iteration order must still never leak into the simulation.
func SortedIDs[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Node is what a roster needs from a participant: the transport
// endpoint that Crash, Fail and Stop take offline.
type Node interface {
	Endpoint() *transport.Endpoint
}

// Roster is one deployment's membership state. The zero value is not
// usable; call Init first. Every walk over the table (LiveNodes, Stop,
// Nodes.Range) is in ascending id order. The epoch counts successful
// Crash, Restart and Join operations; an operation that returns an
// error changes nothing.
type Roster[N Node] struct {
	// Proto prefixes every membership error ("streamer: node 7 already
	// crashed").
	Proto string
	// Nodes is the dense participant table, crashed nodes included:
	// lookups are a slice index. Protocols Put the instances they build
	// (Bullet restarts a node as a fresh one); only the roster decides
	// which of them are live.
	Nodes nodeset.Table[N]

	topoNodes  int // ids outside [0, topoNodes) name no topology node
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

// Init names the roster and fixes what never changes: the topology
// size, the source (which cannot crash) and, for tree protocols, the
// distribution tree late joiners attach to (nil for mesh-only ones).
// The join degree bound is max(2, the deployed tree's largest degree).
func (r *Roster[N]) Init(proto string, topoNodes, source int, tree *overlay.Tree) {
	r.Proto, r.topoNodes, r.source, r.tree = proto, topoNodes, source, tree
	if tree != nil {
		r.joinDegree = max(2, tree.MaxDegree())
	}
}

// Crashed reports whether id is a crashed participant.
func (r *Roster[N]) Crashed(id int) bool { return r.dead.Contains(id) }

// Live reports whether id is a current, non-crashed participant.
func (r *Roster[N]) Live(id int) bool { return r.Nodes.Contains(id) && !r.dead.Contains(id) }

// LiveNodes returns the ids of current non-crashed participants in
// ascending order.
func (r *Roster[N]) LiveNodes() []int {
	out := make([]int, 0, r.Nodes.Len())
	r.Nodes.Range(func(id int, _ N) bool {
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
	if n, ok := r.Nodes.Get(id); ok {
		n.Endpoint().Fail()
	}
}

// Crash fails participant id: its endpoint goes offline and it counts
// as dead until Restart. The source cannot crash.
func (r *Roster[N]) Crash(id int) error {
	n, ok := r.Nodes.Get(id)
	switch {
	case !ok:
		return fmt.Errorf("%s: node %d is not a participant", r.Proto, id)
	case r.dead.Contains(id):
		return fmt.Errorf("%s: node %d already crashed", r.Proto, id)
	case id == r.source:
		return fmt.Errorf("%s: cannot crash the source %d", r.Proto, id)
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
	n, ok := r.Nodes.Get(id)
	if !ok || !r.dead.Contains(id) {
		return fmt.Errorf("%s: node %d is not crashed", r.Proto, id)
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
// the protocol's policy: build the node, Put it in Nodes, wire it in.
func (r *Roster[N]) Join(id int, admit func() error) error {
	switch {
	case id < 0 || id >= r.topoNodes:
		return fmt.Errorf("%s: node %d is not in the topology", r.Proto, id)
	case r.dead.Contains(id):
		return fmt.Errorf("%s: node %d crashed; use Restart", r.Proto, id)
	case r.Nodes.Contains(id):
		return fmt.Errorf("%s: node %d is already a participant", r.Proto, id)
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
		return -1, fmt.Errorf("%s: no live attach point for node %d", r.Proto, id)
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
	r.Nodes.Range(func(id int, n N) bool {
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
