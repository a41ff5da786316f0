// Package streamer implements the paper's §4.2 baseline: a simple
// application that streams sequentially numbered packets from the root
// of an arbitrary overlay tree, each node forwarding every received
// packet to its children over TFRC flows as fast as the transport
// allows. There is no recovery: whatever the transport or network
// drops is lost, so delivered bandwidth is monotonically decreasing
// down the tree.
package streamer

import (
	"bullet/internal/member"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/transport"
	"bullet/internal/workload"
	"bullet/internal/workset"
)

// Node is one streaming participant. children and flows are parallel
// slices in distribution-tree order.
type Node struct {
	ep       *transport.Endpoint
	parent   int
	children []int
	flows    []*transport.Flow
	seen     *workset.Set
}

// Endpoint returns the node's transport endpoint.
func (n *Node) Endpoint() *transport.Endpoint { return n.ep }

// Seen returns the set of sequence numbers the node has received.
func (n *Node) Seen() *workset.Set { return n.seen }

// ChildFlow returns the stream flow to tree child c, or nil when c is
// not a child of n.
func (n *Node) ChildFlow(c int) *transport.Flow {
	for i, ci := range n.children {
		if ci == c {
			return n.flows[i]
		}
	}
	return nil
}

// System is a deployed streaming overlay. Membership — the participant
// table (a dense node-id-indexed table, so the per-packet onData lookup
// is a slice index), liveness, epoch, teardown, adversary attachment —
// and the deployment handle are the embedded Roster's; this package
// adds the stream wiring and its repair policy.
type System struct {
	member.Roster[*Node]
}

// Deploy creates endpoints and flows for every tree participant and
// schedules the source. Metrics go to col.
func Deploy(net *netem.Network, tree *overlay.Tree, s workload.Stream, col *metrics.Collector) (*System, error) {
	return DeployAs("streamer", net, tree, s, col)
}

// DeployAs is Deploy under another deployment name, for a protocol
// layered over the streamer (anti-entropy).
func DeployAs(name string, net *netem.Network, tree *overlay.Tree, s workload.Stream, col *metrics.Collector) (*System, error) {
	sys := &System{}
	if err := sys.Init(name, net, member.TreeRoot, tree, col, s); err != nil {
		return nil, err
	}
	for _, id := range tree.Participants {
		if err := sys.addNode(id); err != nil {
			return nil, err
		}
	}
	// Source pump: packet generation is owned by the workload layer,
	// scheduled on the root node's own scheduler.
	sys.Pump(nil, func(seq uint64, size int) {
		root := sys.Members.At(tree.Root)
		root.seen.Add(seq)
		root.forward(seq, size)
	})
	return sys, nil
}

// addNode creates the participant for id at its current tree position,
// with a flow to each of its tree children (a late joiner has none).
func (sys *System) addNode(id int) error {
	parent := -1
	if p, ok := sys.Tree().Parent(id); ok {
		parent = p
	}
	n := &Node{
		ep:       transport.NewEndpoint(sys.Net, id),
		parent:   parent,
		children: sys.Tree().Children(id),
		seen:     workset.New(),
	}
	sys.Col.Track(id)
	if err := n.openFlows(sys.Stream.PacketSize); err != nil {
		return err
	}
	n.ep.OnData(func(from int, seq uint64, size int) { sys.onData(id, from, seq, size) })
	sys.Members.Put(id, n)
	return nil
}

// openFlows opens a fresh stream flow to every tree child.
func (n *Node) openFlows(packetSize int) error {
	n.flows = n.flows[:0]
	for _, c := range n.children {
		f, err := n.ep.OpenFlow(c, packetSize)
		if err != nil {
			return err
		}
		n.flows = append(n.flows, f)
	}
	return nil
}

func (sys *System) onData(id, from int, seq uint64, size int) {
	n := sys.Members.At(id)
	now := n.ep.Scheduler().Now()
	sys.Col.Add(now, id, metrics.Raw, size)
	if from == n.parent {
		sys.Col.Add(now, id, metrics.Parent, size)
	}
	if n.seen.Add(seq) {
		sys.Col.Add(now, id, metrics.Useful, size)
		if !sys.RefusesRelay(id) {
			n.forward(seq, size)
		}
	} else {
		sys.Col.Add(now, id, metrics.Duplicate, size)
	}
}

// forward pushes the packet to every child, best effort.
func (n *Node) forward(seq uint64, size int) {
	for _, f := range n.flows {
		f.TrySend(seq, size)
	}
}

// ---------------------------------------------------------------------
// Repair policy. The plain streamer is the no-recovery baseline: a
// crash (Roster.Crash, unadorned) orphans the node's entire subtree —
// descendants keep their tree positions but receive nothing, and there
// is deliberately no re-parenting, so whatever the orphans miss stays
// missing. Restart and Join are still supported so churn scenarios
// compose across protocols.
// ---------------------------------------------------------------------

// Restart brings a crashed node back in place: the endpoint resumes
// receiving from its parent's still-open flow and fresh flows reopen to
// its children, but data streamed while it was down is gone for good.
func (sys *System) Restart(id int) error {
	return sys.Roster.Restart(id, func(n *Node) error {
		n.ep.Restart()
		return n.openFlows(sys.Stream.PacketSize)
	})
}

// Join attaches a brand-new participant at the deterministic join point
// and starts streaming to it from there.
func (sys *System) Join(id int) error {
	return sys.Roster.Join(id, func() error {
		ap, err := sys.Attach(id)
		if err != nil {
			return err
		}
		if err := sys.addNode(id); err != nil {
			return err
		}
		// The parent's captured children slice predates the join;
		// refresh it (Attach appended the newcomer at the end, so
		// existing flows stay aligned) and open the new flow.
		pn := sys.Members.At(ap)
		pn.children = sys.Tree().Children(ap)
		f, err := pn.ep.OpenFlow(id, sys.Stream.PacketSize)
		if err != nil {
			return err
		}
		pn.flows = append(pn.flows, f)
		return nil
	})
}
