// Package epidemic implements the two §4.4 comparison systems:
//
//   - Push gossiping (lpbcast-like): no tree; every node forwards each
//     non-duplicate packet, as soon as it arrives, to a fixed number of
//     peers chosen uniformly at random from its view. The source sends
//     fresh packets to random nodes at the target rate.
//
//   - Streaming with anti-entropy recovery (pbcast-like): nodes stream
//     over a distribution tree and periodically gossip with random
//     peers, exchanging FIFO Bloom filter digests; a peer responds
//     with packets missing from the digest.
//
// As in the paper's conservative setup, both techniques are granted
// full group membership, reuse Bullet's Bloom filters and TFRC
// transport, use 5 gossip targets per round (experimentally best
// there), and a 20 s anti-entropy epoch so TFRC can ramp up.
//
// Membership (crash, restart, join, teardown, adversary attachment) is
// member.Roster's in both: gossip embeds one directly, anti-entropy
// inherits the tree streamer's, being literally "§4.2 streaming plus
// periodic digest repair" — a layer over *streamer.System that adds
// only rounds, digests and repair flows.
//
// Per-node state is nodeset-backed: participants live in dense
// node-id-indexed tables, and the lazily-opened per-peer flows are
// slices indexed by participant position (the same index the uniform
// random peer draw produces), so the per-packet push path neither
// hashes nor allocates.
package epidemic

import (
	"math/rand"

	"bullet/internal/bloom"
	"bullet/internal/member"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/streamer"
	"bullet/internal/transport"
	"bullet/internal/workload"
	"bullet/internal/workset"
)

// flowSlots holds a node's lazily-opened per-peer flows, indexed by
// participant position (the index the uniform random peer draw
// yields). The slice grows as the participant list grows (late joins).
type flowSlots []*transport.Flow

func (s flowSlots) at(i int) *transport.Flow {
	if i >= len(s) {
		return nil
	}
	return s[i]
}

func (s *flowSlots) set(i int, f *transport.Flow) {
	for i >= len(*s) {
		*s = append(*s, nil)
	}
	(*s)[i] = f
}

type gossipNode struct {
	ep    *transport.Endpoint
	id    int
	seen  *workset.Set
	flows flowSlots
	rng   *rand.Rand
}

func (n *gossipNode) Endpoint() *transport.Endpoint { return n.ep }

// GossipSystem is a deployed push-gossip overlay. Only Freeride has an
// adversary surface here (colluders stop re-forwarding pushes); the
// tree- and RanSub-targeted models are honest no-ops.
type GossipSystem struct {
	member.Roster[*gossipNode]
	participants []int
}

// DeployGossip wires gossip nodes over the participant set (full
// membership, as the paper conservatively assumes).
func DeployGossip(net *netem.Network, participants []int, source int, s workload.Stream, col *metrics.Collector) (*GossipSystem, error) {
	sys := &GossipSystem{}
	if err := sys.Init("gossip", net, source, nil, col, s); err != nil {
		return nil, err
	}
	for _, id := range participants {
		sys.addNode(id)
	}
	// Source pump: packet generation is owned by the workload layer,
	// scheduled on the source node's own scheduler.
	srcNode := sys.Members.At(source)
	sys.Pump(nil, func(seq uint64, size int) {
		srcNode.seen.Add(seq)
		sys.push(srcNode, seq, size)
	})
	return sys, nil
}

// addNode creates the gossip participant for id and appends it to the
// view every node's random peer draw selects from.
func (sys *GossipSystem) addNode(id int) {
	n := &gossipNode{
		ep:   transport.NewEndpoint(sys.Net, id),
		id:   id,
		seen: workset.New(),
		rng:  sys.Net.Engine().RNG(int64(id)*31337 + 0x676f73),
	}
	sys.Col.Track(id)
	n.ep.OnData(func(from int, seq uint64, size int) { sys.onData(id, from, seq, size) })
	sys.Members.Put(id, n)
	sys.participants = append(sys.participants, id)
}

// fanout is how many random peers each packet is pushed to (paper: 5
// performs best with lowest overhead).
const fanout = 5

// push forwards a packet to fanout random peers over per-peer TFRC
// flows (created lazily and reused).
func (sys *GossipSystem) push(n *gossipNode, seq uint64, size int) {
	for i := 0; i < fanout; i++ {
		pi := n.rng.Intn(len(sys.participants))
		peer := sys.participants[pi]
		if peer == n.id {
			continue
		}
		f := n.flows.at(pi)
		if f == nil {
			var err error
			f, err = n.ep.OpenFlow(peer, sys.Stream.PacketSize)
			if err != nil {
				continue
			}
			n.flows.set(pi, f)
		}
		f.TrySend(seq, size)
	}
}

func (sys *GossipSystem) onData(id, from int, seq uint64, size int) {
	n := sys.Members.At(id)
	now := n.ep.Scheduler().Now()
	sys.Col.Add(now, id, metrics.Raw, size)
	if n.seen.Add(seq) {
		sys.Col.Add(now, id, metrics.Useful, size)
		if !sys.RefusesServe(id) {
			sys.push(n, seq, size)
		}
	} else {
		sys.Col.Add(now, id, metrics.Duplicate, size)
	}
}

// Gossip's repair policy is nearly empty. After a crash (Roster.Crash,
// unadorned) peers keep pushing to the dead node — membership is
// static gossip state — and those packets are lost.

// Restart brings a crashed gossip node back; its flows reopen lazily.
func (sys *GossipSystem) Restart(id int) error {
	return sys.Roster.Restart(id, func(n *gossipNode) error {
		n.ep.Restart()
		clear(n.flows) // Fail closed them
		return nil
	})
}

// Join adds a brand-new gossip participant; every node's future random
// peer choices may select it.
func (sys *GossipSystem) Join(id int) error {
	return sys.Roster.Join(id, func() error {
		sys.addNode(id)
		return nil
	})
}

// ---------------------------------------------------------------------

// The paper's anti-entropy round: every aeEpoch (20 s, so TFRC has
// time to ramp) a node sends a FIFO Bloom digest of its last aeWindow
// sequence numbers to aePeers random peers.
const (
	aeEpoch  = 20 * sim.Second
	aePeers  = 5
	aeWindow = 2000
)

// aeDigestMsg carries a node's FIFO Bloom digest to a random peer.
type aeDigestMsg struct {
	filter    *bloom.Filter
	low, high uint64
}

// aePeer is a node's anti-entropy state, beside its streamer.Node.
type aePeer struct {
	// repair holds the lazily-opened flows answering digests, indexed
	// by participant position (see AntiEntropySystem.pindex).
	repair  flowSlots
	rng     *rand.Rand
	roundFn func() // cached aeRound closure: one alloc per node, not per epoch

	// roundDead marks that the periodic round chain ended because a
	// tick fired while the node was crashed. Restart re-arms the chain
	// only then, so a crash/restart cycle never leaves two concurrent
	// round loops running.
	roundDead bool
}

// AntiEntropySystem is a deployed streaming + anti-entropy overlay:
// the tree streamer (stream wiring, forwarding, crash semantics, tree
// joins — a crash orphans the subtree exactly as it does there) plus
// an epidemic repair path that lets survivors, and a restarted node
// whose digests advertise what it kept, re-converge.
type AntiEntropySystem struct {
	*streamer.System
	participants []int
	// pindex maps node id -> position in participants, the per-node
	// repair-flow slot index.
	pindex nodeset.Table[int]
	peers  nodeset.Table[*aePeer]
}

// DeployAntiEntropy wires tree streaming plus random-peer anti-entropy
// repair over full membership.
func DeployAntiEntropy(net *netem.Network, tree *overlay.Tree, s workload.Stream, col *metrics.Collector) (*AntiEntropySystem, error) {
	st, err := streamer.DeployAs("anti-entropy", net, tree, s, col)
	if err != nil {
		return nil, err
	}
	sys := &AntiEntropySystem{System: st}
	for _, id := range tree.Participants {
		sys.arm(id)
	}
	return sys, nil
}

// arm gives streamer participant id its anti-entropy half: a slot in
// the full-membership view, the digest handler, and a round chain
// de-phased per node on the node's own scheduler.
func (sys *AntiEntropySystem) arm(id int) {
	ep := sys.Members.At(id).Endpoint()
	p := &aePeer{
		rng:     ep.Scheduler().RNG(int64(id)*271828 + 0x6165),
		roundFn: func() { sys.aeRound(id) },
	}
	sys.peers.Put(id, p)
	sys.pindex.Put(id, len(sys.participants))
	sys.participants = append(sys.participants, id)
	ep.OnControl(func(from int, payload any, size int) { sys.onControl(id, from, payload) })
	jitter := sim.Duration(p.rng.Int63n(int64(aeEpoch)))
	ep.Scheduler().ScheduleAfter(aeEpoch+jitter, p.roundFn)
}

// aeRound sends this node's digest to a few random peers.
func (sys *AntiEntropySystem) aeRound(id int) {
	n, p := sys.Members.At(id), sys.peers.At(id)
	ep, seen := n.Endpoint(), n.Seen()
	if ep.Failed() {
		p.roundDead = true
		return
	}
	// Maintain the FIFO window.
	if hi := seen.High(); hi > aeWindow {
		seen.TrimBelow(hi - aeWindow)
	}
	filter := bloom.NewForCapacity(aeWindow, 0.03)
	seen.ForRange(seen.Low(), seen.High(), func(seq uint64) bool {
		filter.Add(seq)
		return true
	})
	for i := 0; i < aePeers; i++ {
		peer := sys.participants[p.rng.Intn(len(sys.participants))]
		if peer == id {
			continue
		}
		ep.SendControl(peer, &aeDigestMsg{filter: filter, low: seen.Low(), high: seen.High()}, filter.SizeBytes()+24)
	}
	ep.Scheduler().ScheduleAfter(aeEpoch, p.roundFn)
}

// onControl answers digests with missing packets (last-in-first-out,
// like pbcast's most-recent-first retransmission).
func (sys *AntiEntropySystem) onControl(id, from int, payload any) {
	m, ok := payload.(*aeDigestMsg)
	if !ok {
		return
	}
	if sys.RefusesServe(id) {
		return // hostile: never answer a repair digest
	}
	pi, ok := sys.pindex.Get(from)
	if !ok {
		return // digest from a non-participant: ignore
	}
	// A tree child is answered over its stream flow; everyone else
	// over a repair flow opened on first use. Never both: a second
	// flow to the same peer would split its TFRC budget.
	n, p := sys.Members.At(id), sys.peers.At(id)
	f := n.ChildFlow(from)
	if f == nil {
		f = p.repair.at(pi)
	}
	if f == nil {
		var err error
		f, err = n.Endpoint().OpenFlow(from, sys.Stream.PacketSize)
		if err != nil {
			return
		}
		p.repair.set(pi, f)
	}
	// Serve from newest to oldest until the flow budget runs out.
	seen := n.Seen()
	lo := max(m.low, seen.Low())
	for seq := seen.High(); seq+1 > lo; seq-- {
		if !seen.Held(seq) {
			continue
		}
		if m.filter.Contains(seq) {
			continue
		}
		if !f.TrySend(seq, sys.Stream.PacketSize) {
			break
		}
		if seq == 0 {
			break
		}
	}
}

// Restart brings a crashed node back in place: the streamer reopens
// the flows to its children, repair flows reopen lazily, and its
// anti-entropy rounds resume (backfilling what it missed from random
// peers).
func (sys *AntiEntropySystem) Restart(id int) error {
	if err := sys.System.Restart(id); err != nil {
		return err
	}
	p := sys.peers.At(id)
	clear(p.repair) // Fail closed them
	// Re-arm the round chain only if it actually ended while the node
	// was down; otherwise the pre-crash timer is still pending and will
	// resume on its own.
	if p.roundDead {
		p.roundDead = false
		sys.Members.At(id).Endpoint().Scheduler().ScheduleAfter(aeEpoch, p.roundFn)
	}
	return nil
}

// Join attaches a brand-new participant at the streamer's join point
// and starts its anti-entropy rounds.
func (sys *AntiEntropySystem) Join(id int) error {
	if err := sys.System.Join(id); err != nil {
		return err
	}
	sys.arm(id)
	return nil
}

// Strike activates the fleet; freeriders stop relaying to children and
// stop answering digests. It shadows the streamer's Strike on purpose:
// the crash-timing models (Cutvertex, Joinstorm) stay honest no-ops
// for the epidemic baselines, as do Liar and Ballotstuff.
func (sys *AntiEntropySystem) Strike() { sys.Roster.Strike() }
