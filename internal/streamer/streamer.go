// Package streamer implements the paper's §4.2 baseline: a simple
// application that streams sequentially numbered packets from the root
// of an arbitrary overlay tree, each node forwarding every received
// packet to its children over TFRC flows as fast as the transport
// allows. There is no recovery: whatever the transport or network
// drops is lost, so delivered bandwidth is monotonically decreasing
// down the tree.
package streamer

import (
	"fmt"

	"bullet/internal/member"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/transport"
	"bullet/internal/workload"
	"bullet/internal/workset"
)

// Config controls a streaming run.
type Config struct {
	// RateKbps is the source streaming rate.
	RateKbps float64
	// PacketSize is the application payload per packet in bytes.
	PacketSize int
	// Start is when the source begins streaming.
	Start sim.Time
	// Duration is how long the source streams.
	Duration sim.Duration
	// Workload overrides the default constant-bit-rate source (nil
	// streams CBR at RateKbps/PacketSize, byte-identical to the
	// pre-workload-layer pump).
	Workload workload.Source
}

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
// is the embedded Roster's; this package adds the stream wiring and
// its repair policy.
type System struct {
	member.Roster[*Node]
	Tree *overlay.Tree
	cfg  Config
	col  *metrics.Collector
	src  workload.Source
	net  *netem.Network
}

// Deploy creates endpoints and flows for every tree participant and
// schedules the source. Metrics go to col.
func Deploy(net *netem.Network, tree *overlay.Tree, cfg Config, col *metrics.Collector) (*System, error) {
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 1500
	}
	if cfg.Workload == nil && cfg.RateKbps <= 0 {
		return nil, fmt.Errorf("streamer: rate %v Kbps", cfg.RateKbps)
	}
	sys := &System{Tree: tree, cfg: cfg, col: col, net: net,
		src: workload.Default(cfg.Workload, cfg.RateKbps, cfg.PacketSize)}
	sys.Init("streamer", len(net.Graph().Nodes), tree.Root, tree)
	workload.InstallCompletion(sys.src, col)
	for _, id := range tree.Participants {
		if err := sys.addNode(id); err != nil {
			return nil, err
		}
	}
	// Source pump: packet generation is owned by the workload layer,
	// scheduled on the root node's own scheduler.
	end := cfg.Start + cfg.Duration
	sched := sys.Nodes.At(tree.Root).ep.Scheduler()
	workload.Pump(sched, sys.src, cfg.Start,
		func() bool { return sched.Now() >= end || sys.Stopped() },
		func(seq uint64, size int) {
			root := sys.Nodes.At(tree.Root)
			root.seen.Add(seq)
			root.forward(seq, size)
		})
	return sys, nil
}

// addNode creates the participant for id at its current tree position,
// with a flow to each of its tree children (a late joiner has none).
func (sys *System) addNode(id int) error {
	parent := -1
	if p, ok := sys.Tree.Parent(id); ok {
		parent = p
	}
	n := &Node{
		ep:       transport.NewEndpoint(sys.net, id),
		parent:   parent,
		children: sys.Tree.Children(id),
		seen:     workset.New(),
	}
	sys.col.Track(id)
	if err := n.openFlows(sys.cfg.PacketSize); err != nil {
		return err
	}
	n.ep.OnData(func(from int, seq uint64, size int) { sys.onData(id, from, seq, size) })
	sys.Nodes.Put(id, n)
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

// Workload returns the source driving this deployment's packet
// generation (the configured one, or the default CBR).
func (sys *System) Workload() workload.Source { return sys.src }

// Collector returns the metrics sink.
func (sys *System) Collector() *metrics.Collector { return sys.col }

func (sys *System) onData(id, from int, seq uint64, size int) {
	n := sys.Nodes.At(id)
	now := n.ep.Scheduler().Now()
	sys.col.Add(now, id, metrics.Raw, size)
	if from == n.parent {
		sys.col.Add(now, id, metrics.Parent, size)
	}
	if n.seen.Add(seq) {
		sys.col.Add(now, id, metrics.Useful, size)
		if !sys.RefusesRelay(id) {
			n.forward(seq, size)
		}
	} else {
		sys.col.Add(now, id, metrics.Duplicate, size)
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
		return n.openFlows(sys.cfg.PacketSize)
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
		pn := sys.Nodes.At(ap)
		pn.children = sys.Tree.Children(ap)
		f, err := pn.ep.OpenFlow(id, sys.cfg.PacketSize)
		if err != nil {
			return err
		}
		pn.flows = append(pn.flows, f)
		return nil
	})
}
