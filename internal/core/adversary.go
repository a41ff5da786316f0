package core

// Adversary wiring: a deployed adversary.Fleet attaches to the system
// through SetAdversary and stays dormant until a scenario's
// AdversaryAt action calls Strike. All hostile randomness comes from
// the fleet's seeded stream, drawn only here (global-engine context:
// scenario actions and membership churn run between shard windows);
// the per-node hooks that run inside shard windows — serving guards,
// ticket lookups, ballot rewrites — only read state written before
// the window barrier, so sharded adversarial runs stay byte-identical
// to serial.

import (
	"bullet/internal/adversary"
	"bullet/internal/ransub"
	"bullet/internal/sketch"
)

// SetAdversary attaches fleet to the deployment and arms the per-node
// hooks its model needs. Passing nil (or a None fleet) leaves the
// system untouched. Must be called before the run starts or from
// global-engine context.
func (sys *System) SetAdversary(f *adversary.Fleet) {
	sys.Roster.SetAdversary(f)
	if sys.Adversary() == nil {
		return
	}
	sys.Members.Range(func(_ int, n *Node) bool {
		sys.armAdversary(n)
		return true
	})
}

// armAdversary installs the model's per-node hooks. Hooks go on every
// node and check hostility at call time, so CompromiseNodes can extend
// the colluder set mid-run without re-wiring.
func (sys *System) armAdversary(n *Node) {
	switch sys.Adversary().Model() {
	case adversary.Liar:
		real := n.agent.TicketFn
		n.agent.TicketFn = func() *sketch.Ticket {
			if t := sys.forgedTicket(n.id); t != nil {
				return t
			}
			return real()
		}
	case adversary.Ballotstuff:
		n.agent.StuffFn = func(set []ransub.Entry, desc int) ([]ransub.Entry, int) {
			return sys.stuffBallot(n.id, set, desc)
		}
	}
}

// forgedTicket returns the hostile summary ticket for id, or nil when
// id should behave honestly. Read from shard windows; written only at
// Strike/Compromise on the global engine.
func (sys *System) forgedTicket(id int) *sketch.Ticket {
	if f := sys.Adversary(); f == nil || !f.Hostile(id) {
		return nil
	}
	t, _ := sys.fakeTickets.Get(id)
	return t
}

// forgeTickets fabricates, for every colluder lacking one, a summary
// ticket populated from a sequence range no real packet ever uses
// (≥ 2^40). Its resemblance to any honest working set is ~0, so
// min-resemblance sender selection (§3.3) ranks the colluder first —
// the lie that poisons peering. Idempotent per colluder; tickets are
// immutable once forged so sharing the pointer across ballots and
// shard windows is safe.
func (sys *System) forgeTickets() {
	f := sys.Adversary()
	for _, id := range f.Colluders() {
		if sys.fakeTickets.Contains(id) {
			continue
		}
		t := sketch.NewTicket(sys.perms)
		base := uint64(1)<<40 + uint64(id)<<20
		k := 64 + f.Stream().Intn(id, 64)
		for i := 0; i < k; i++ {
			t.Add(base + uint64(f.Stream().Intn(id, 1<<18)))
		}
		sys.fakeTickets.Put(id, t)
	}
}

// stuffBallot is the Ballotstuff collect-path rewrite: a hostile
// node replaces its subtree's honest ballot with colluder entries
// carrying forged tickets and inflates its descendant count, so
// Compact's population weighting drives colluders into every random
// subset above it. Deterministic: colluder choice depends only on
// (slot, node id).
func (sys *System) stuffBallot(id int, set []ransub.Entry, desc int) ([]ransub.Entry, int) {
	f := sys.Adversary()
	if f == nil || f.Model() != adversary.Ballotstuff || !f.Hostile(id) {
		return set, desc
	}
	cols := f.Colluders()
	if len(cols) == 0 {
		return set, desc
	}
	out := make([]ransub.Entry, len(set))
	for i := range set {
		c := cols[(i+id)%len(cols)]
		if t, ok := sys.fakeTickets.Get(c); ok {
			out[i] = ransub.Entry{Node: c, Ticket: t}
		} else {
			out[i] = set[i]
		}
	}
	return out, desc*4 + 4
}

// Compromise adds nodes to the fleet's colluder set (scenario action
// CompromiseNodes). No-op without an attached fleet.
func (sys *System) Compromise(nodes []int) {
	sys.Roster.Compromise(nodes)
	if f := sys.Adversary(); f != nil && f.Active() {
		switch f.Model() {
		case adversary.Liar, adversary.Ballotstuff:
			sys.forgeTickets()
		}
	}
}

// Strike activates the fleet (scenario action AdversaryAt). The
// leeching models flip their serving guards; Liar and Ballotstuff
// additionally forge tickets; the crash-timing models (Cutvertex,
// Joinstorm) run through this system's Crash and Restart.
func (sys *System) Strike() {
	sys.StrikeCrashes(sys.eng, sys.Crash, sys.Restart)
	if f := sys.Adversary(); f != nil {
		switch f.Model() {
		case adversary.Liar, adversary.Ballotstuff:
			sys.forgeTickets()
		}
	}
}
