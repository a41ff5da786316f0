package core

// Membership runtime for Bullet: crash, restart, and join of overlay
// participants while the stream runs. This is the mechanism behind the
// paper's node-failure evaluation — RanSub waves skip dead peers, the
// distribution tree deterministically re-parents orphans one level up,
// and receivers re-install their Bloom filters at live peers once a
// crashed sender is detected.
//
// Every operation is deterministic: repairs run at fixed virtual-time
// offsets from the crash, iterate nodes in ascending id order, and
// draw no randomness, so a churn run remains a pure function of
// (config, seed, schedule).

import (
	"bullet/internal/sim"
)

// FailoverDelay is how long after a crash the failure is considered
// detected: tree surgery and mesh peer teardown run this much virtual
// time after Crash. It models the paper's detection latency (RanSub
// epoch timeouts, TFRC feedback silence) as a fixed constant.
const FailoverDelay = 2 * sim.Second

// Crash fails node id mid-run: its endpoint goes down immediately and,
// FailoverDelay later, the failure is detected — the tree re-parents
// its orphaned children to the nearest live ancestor and every live
// node tears down mesh state involving it. The source (tree root)
// cannot crash.
func (sys *System) Crash(id int) error {
	if err := sys.Roster.Crash(id); err != nil {
		return err
	}
	n := sys.Members.At(id)
	// The detection callback belongs to *this* crash: if the node was
	// restarted (fresh *Node in the table) and crashed again before
	// this timer fires, the newer crash's own callback owns the repair
	// — firing here early would violate the fixed detection delay.
	sys.eng.ScheduleAfter(FailoverDelay, func() {
		if sys.Crashed(id) && sys.Members.At(id) == n {
			sys.repair(id)
		}
	})
	return nil
}

// repair performs failure detection's aftermath for a crashed node:
// deterministic orphan re-parenting plus mesh teardown at every live
// node. Called once per crash (or synchronously by Restart when the
// node comes back before detection fires).
func (sys *System) repair(id int) {
	if !sys.Tree().Contains(id) {
		return
	}
	p, _ := sys.Tree().Parent(id)
	promoted, err := sys.Tree().ReparentChildren(id)
	if err != nil {
		return // root: unreachable, Crash refuses it
	}
	parentLive := !sys.Crashed(p)
	if pn, ok := sys.Members.Get(p); ok && parentLive {
		pn.removeChild(id)
	}
	for _, c := range promoted {
		cn, ok := sys.Members.Get(c)
		if !ok {
			continue
		}
		cn.parent = p
		cn.agent.SetParent(p)
		if sys.Crashed(c) {
			// The orphan itself is dead: its own repair will promote
			// its subtree again, so don't wire flows to it.
			continue
		}
		if pn, ok := sys.Members.Get(p); ok && parentLive {
			pn.addChild(c)
		}
	}
	// Every live node drops the dead peer from its mesh and re-installs
	// Bloom filters at the survivors, in ascending id order.
	sys.Members.Range(func(nid int, n *Node) bool {
		if nid != id && !sys.Crashed(nid) {
			n.dropDeadPeer(id)
		}
		return true
	})
}

// Restart brings a crashed node back as a fresh participant: empty
// working set, new endpoint, re-attached at the deterministic join
// point. If the crash had not been detected yet the repair runs first,
// so the stale tree position is cleaned up before the rejoin. With no
// live attach point right now (e.g. every neighbor is itself crashed
// and undetected) the node stays crashed so a later Restart can retry.
func (sys *System) Restart(id int) error {
	return sys.Roster.Restart(id, func(*Node) error {
		sys.repair(id)
		return sys.attach(id)
	})
}

// Join adds a brand-new participant mid-run, attached at the
// deterministic join point (first breadth-first live node with spare
// degree).
func (sys *System) Join(id int) error {
	return sys.Roster.Join(id, func() error { return sys.attach(id) })
}

// attach hangs a fresh Node for id under the join point.
func (sys *System) attach(id int) error {
	ap, err := sys.Attach(id)
	if err != nil {
		return err
	}
	if err := sys.addNode(id); err != nil {
		return err
	}
	sys.Members.At(ap).addChild(id)
	return nil
}

// Stop tears the deployment down: the source halts and every live
// endpoint goes offline. The world (and any other deployment in it)
// keeps running.
func (sys *System) Stop() {
	// Quiesce the RanSub root first: its epoch/timeout timers would
	// otherwise re-arm forever even with every endpoint down.
	if !sys.Stopped() {
		sys.Members.At(sys.Tree().Root).agent.Stop()
	}
	sys.Roster.Stop()
}

// ---------------------------------------------------------------------
// Per-node wiring updates
// ---------------------------------------------------------------------

// removeChild forgets a tree child: its flow closes and the RanSub
// agent stops waiting for its collects.
func (n *Node) removeChild(c int) {
	for i, ci := range n.children {
		if ci.node == c {
			ci.flow.Close()
			n.children = append(n.children[:i], n.children[i+1:]...)
			break
		}
	}
	n.agent.RemoveChild(c)
}

// addChild wires a new tree child: fresh flow, default sending/limiting
// factors (refined at the next RanSub epoch), RanSub membership.
func (n *Node) addChild(c int) {
	if n.findChild(c) != nil {
		return
	}
	f, err := n.openFlow(c)
	if err != nil {
		return
	}
	n.children = append(n.children, newChild(c, f))
	n.agent.AddChild(c)
}

// dropDeadPeer removes a crashed node from this node's mesh state:
// senders holding our Bloom filter, receivers we were serving, and any
// pending peering handshake. A freed sender slot triggers row
// reassignment, a refresh to the surviving senders (the "Bloom filter
// re-install"), and an immediate attempt to fill the slot from the
// latest RanSub set.
func (n *Node) dropDeadPeer(id int) {
	if rf := n.removeReceiver(id); rf != nil {
		rf.flow.Close()
	}
	if n.pending == id {
		n.pending = -1
	}
	if !n.removeSender(id) {
		return
	}
	n.reassignRows()
	n.sendRefreshes()
	n.maybeRequestPeer()
}
