// Package core implements Bullet itself (§3 of the paper): an overlay
// mesh layered on top of an arbitrary distribution tree. Each node
// receives a parent stream chosen disjointly by the Figure 5 send
// routine, locates peers holding missing data through RanSub summary
// tickets, installs Bloom filters at those peers, and recovers
// disjoint rows of the sequence matrix (Figure 4) from each of them in
// parallel. Peering relationships are continuously re-evaluated
// (§3.4): wasteful or useless senders and under-benefiting receivers
// are dropped to make room for trial peers.
//
// Per-node and per-peer state is nodeset-backed (see CONTRIBUTING):
// the participant table and dead set are dense node-id-indexed, the
// small per-node peer lists (children, senders, receivers) are slices
// in deterministic order — children in tree order, peers ascending by
// node id — and the per-sequence timestamps (arrival stamps, per-peer
// recently-sent windows) live in SeqWindows held by value. No map
// iteration order can leak into the simulation, and the packet-rate
// paths do not hash or allocate. Memory is shard-private: a node's
// state is its own, so a dropped peer's state goes with it and nothing
// is pooled across nodes or shards.
package core

import (
	"cmp"
	"math"
	"slices"

	"bullet/internal/bloom"
	"bullet/internal/member"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/ransub"
	"bullet/internal/sim"
	"bullet/internal/sketch"
	"bullet/internal/transport"
	"bullet/internal/workset"
)

// Control message types exchanged between Bullet peers.

// peerRequestMsg asks a node discovered via RanSub to become one of the
// requester's senders; it carries the requester's current Bloom filter
// and recovery range.
type peerRequestMsg struct {
	filter    *bloom.Filter
	low, high uint64
}

type peerAcceptMsg struct{}
type peerRejectMsg struct{}

// filterRefreshMsg is the periodic receiver -> sender update: fresh
// Bloom filter, recovery range, the sender's assigned matrix row, and
// the receiver's total received bytes since the last refresh (used by
// sender-side eviction).
type filterRefreshMsg struct {
	filter    *bloom.Filter
	low, high uint64
	mod, rows int
	recvBytes uint64
}

// peerDropMsg tears down a peering. bySender is true when the sender
// side drops one of its receivers, false when a receiver drops one of
// its senders.
type peerDropMsg struct {
	bySender bool
}

const smallMsgSize = 16

// childInfo is the per-child state of the Figure 5 disjoint send
// routine.
type childInfo struct {
	node      int
	flow      *transport.Flow
	sf        float64       // sending factor from RanSub descendants
	lf        float64       // limiting factor
	sentOwned uint64        // packets owned this epoch
	filter    *bloom.Filter // what we know the child already has
}

// newChild returns the send state for a child reached over flow, at
// the full limiting factor until the next RanSub epoch refines it.
func newChild(node int, flow *transport.Flow) *childInfo {
	return &childInfo{node: node, flow: flow, lf: 1.0, filter: bloom.NewForCapacity(4096, 0.01)}
}

// senderInfo is receiver-side state about one of our sending peers.
type senderInfo struct {
	node        int
	mod         int
	usefulPkts  uint64
	dupPkts     uint64
	usefulBytes uint64
}

// seqQueue is a FIFO of sequence numbers consumed from the front by
// index. Consuming via front-reslicing (q = q[1:]) abandons the
// backing array one element at a time, so every rebuild re-grows the
// queue from whatever capacity survived — at sustained stream rates
// that was one of the largest steady-state allocation sources in the
// process. Tracking a head index instead reuses the array forever.
//
// count points at the owning node's queued total: push, popFront and
// reset keep it equal to the sum of len() over the node's receiver
// queues, so callers never adjust it themselves. newReceiver links
// both queues of every receiver, and removeReceiver resets them, so a
// removed receiver takes its entries out of the total.
type seqQueue struct {
	buf   []uint64
	head  int
	count *int
}

func (q *seqQueue) reset()        { *q.count -= q.len(); q.buf = q.buf[:0]; q.head = 0 }
func (q *seqQueue) push(s uint64) { q.buf = append(q.buf, s); *q.count++ }
func (q *seqQueue) len() int      { return len(q.buf) - q.head }
func (q *seqQueue) peek() uint64  { return q.buf[q.head] }

// popFront consumes the front element, rewinding to the array start
// once the queue empties so pushes re-fill it from offset zero.
func (q *seqQueue) popFront() {
	q.head++
	*q.count--
	if q.head == len(q.buf) {
		q.reset()
	}
}

// recvPeerInfo is sender-side state about one of our receiving peers.
// Candidates are kept in two queues: holes are sequences within the
// receiver's advertised (Low, High) range — known gaps, served
// immediately — while fresh are sequences beyond High, served in
// arrival order once they pass the freshness gate.
type recvPeerInfo struct {
	node      int
	flow      *transport.Flow
	filter    *bloom.Filter // shared snapshot: read only
	low, high uint64
	mod, rows int
	holes     seqQueue
	fresh     seqQueue
	// freshAt, when non-zero, is the instant the fresh queue's head
	// passes the freshness gate that last held it back (see drainQueue).
	freshAt   sim.Time
	sentSince nodeset.SeqWindow // recently sent: seq -> send time
	sentBytes uint64            // bytes sent in current eval window
	recvBytes uint64            // receiver's reported total, last refresh
}

// newReceiver returns the entry for a new receiving peer on row 0 of
// one, both of its queues counted in n.queued. Every receiver entry is
// built here.
func (n *Node) newReceiver(node int, flow *transport.Flow, filter *bloom.Filter, low, high uint64) *recvPeerInfo {
	rf := &recvPeerInfo{node: node, flow: flow, filter: filter, low: low, high: high, rows: 1}
	rf.holes.count = &n.queued
	rf.fresh.count = &n.queued
	return rf
}

// Endpoint returns the node's transport endpoint.
func (n *Node) Endpoint() *transport.Endpoint { return n.ep }

// openFlow opens a data flow to node to, sampling every TraceEvery-th
// packet for link stress.
func (n *Node) openFlow(to int) (*transport.Flow, error) {
	f, err := n.ep.OpenFlow(to, n.sys.Stream.PacketSize)
	if err == nil {
		f.TraceEvery = n.sys.cfg.TraceEvery
	}
	return f, err
}

// Node is one Bullet participant.
type Node struct {
	// What a pump tick reads comes first, in 56 adjacent bytes of the
	// first cache line (a Node is a 384-byte object, so it starts on
	// one): the endpoint (its failed flag and engine), the queued total
	// that lets an idle tick stop there, and what a tick with work goes
	// on to read. TestNodeLayout pins the lines that onData and ingest
	// read, down to recvWindow.
	ep *transport.Endpoint
	// queued is the number of sequences waiting in all receivers'
	// holes and fresh queues, kept by seqQueue itself.
	queued    int
	sys       *System
	id        int
	receivers []*recvPeerInfo // sorted ascending by peer node id

	parent int
	// children holds per-child disjoint-send state in distribution-tree
	// order (the order tree.Children reported at wiring time, plus
	// runtime additions appended) — the iteration order of the Figure 5
	// routine, which shared transport budgets make behaviourally
	// significant.
	children []*childInfo
	agent    *ransub.Agent

	ws       *workset.Set
	ticket   *sketch.Ticket
	filter   *bloom.Filter
	arrivals nodeset.SeqWindow // when each held seq arrived (freshness gate)

	// senders, like receivers, are kept sorted ascending by peer node
	// id: every walk that used to sort map keys now just ranges the
	// slice, with identical (deterministic) order and no allocation.
	senders []*senderInfo
	pending int // node we sent a peerRequest to; -1 if none
	lastSet []ransub.Entry

	epochPkts  uint64 // new packets this epoch (sizes lf delta)
	lfDelta    float64
	recvWindow uint64 // all data bytes since last refresh

	refreshCount uint64 // refresh ticks seen, for rotation cadence

	// Scratch for the control paths comes last, so that what onData
	// reads above spans no more lines than it must.
	//
	// candScratch backs maybeRequestPeer's candidate filtering; reused
	// across calls, grown once to the RanSub set size.
	candScratch []ransub.Entry
	// rowUsed and rowConflicts are reassignRows' scratch, reused across
	// calls; rowConflicts is cleared after each one.
	rowUsed      []bool
	rowConflicts []*senderInfo
}

// findChild returns the child entry for node id, or nil. Child lists
// are bounded by the tree degree, so a linear scan beats hashing.
func (n *Node) findChild(id int) *childInfo {
	if i := slices.IndexFunc(n.children, func(ci *childInfo) bool { return ci.node == id }); i >= 0 {
		return n.children[i]
	}
	return nil
}

// findSender returns the sender entry for peer id, or nil.
func (n *Node) findSender(id int) *senderInfo {
	if i := slices.IndexFunc(n.senders, func(si *senderInfo) bool { return si.node == id }); i >= 0 {
		return n.senders[i]
	}
	return nil
}

// addSender inserts si keeping the list sorted by node id.
func (n *Node) addSender(si *senderInfo) {
	i, _ := slices.BinarySearchFunc(n.senders, si.node, func(s *senderInfo, id int) int { return cmp.Compare(s.node, id) })
	n.senders = slices.Insert(n.senders, i, si)
}

// removeSender deletes the sender entry for peer id, preserving order,
// and reports whether one was present.
func (n *Node) removeSender(id int) bool {
	i := slices.IndexFunc(n.senders, func(si *senderInfo) bool { return si.node == id })
	if i >= 0 {
		n.senders = slices.Delete(n.senders, i, i+1)
	}
	return i >= 0
}

// findReceiver returns the receiver entry for peer id, or nil.
func (n *Node) findReceiver(id int) *recvPeerInfo {
	if i := slices.IndexFunc(n.receivers, func(rf *recvPeerInfo) bool { return rf.node == id }); i >= 0 {
		return n.receivers[i]
	}
	return nil
}

// addReceiver inserts rf keeping the list sorted by node id.
func (n *Node) addReceiver(rf *recvPeerInfo) {
	i, _ := slices.BinarySearchFunc(n.receivers, rf.node, func(r *recvPeerInfo, id int) int { return cmp.Compare(r.node, id) })
	n.receivers = slices.Insert(n.receivers, i, rf)
}

// removeReceiver deletes and returns the receiver entry for peer id
// (nil if absent), preserving order.
func (n *Node) removeReceiver(id int) *recvPeerInfo {
	i := slices.IndexFunc(n.receivers, func(rf *recvPeerInfo) bool { return rf.node == id })
	if i < 0 {
		return nil
	}
	rf := n.receivers[i]
	n.receivers = slices.Delete(n.receivers, i, i+1)
	rf.holes.reset()
	rf.fresh.reset()
	return rf
}

// System is a deployed Bullet overlay.
type System struct {
	// Roster is the membership runtime and the deployment handle: the
	// dense participant table, the crashed set (a crashed node's
	// failure may not be repaired yet, see membership.go), epoch,
	// teardown, the attached adversary fleet, and the network,
	// collector, stream and tree.
	member.Roster[*Node]

	// cfg's stream half is read as the Roster's Stream, defaults
	// applied.
	cfg   Config
	eng   *sim.Engine
	perms *sketch.Permutations

	// fakeTickets holds the forged summary tickets of Liar/Ballotstuff
	// colluders (written only from global-engine context, see
	// adversary.go).
	fakeTickets nodeset.Table[*sketch.Ticket]
}

// Deploy instantiates Bullet on every participant of tree, wires
// RanSub, and schedules the source. Measurements go to col.
func Deploy(net *netem.Network, tree *overlay.Tree, cfg Config, col *metrics.Collector) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys := &System{
		cfg:   cfg,
		eng:   net.Engine(),
		perms: sketch.NewPermutations(sketch.DefaultEntries, net.Engine().Seed()^0x6d77),
	}
	if err := sys.Init("bullet", net, member.TreeRoot, tree, col, cfg.Stream); err != nil {
		return nil, err
	}
	for _, id := range tree.Participants {
		if err := sys.addNode(id); err != nil {
			return nil, err
		}
	}
	// Kick off RanSub at the root, then the stream: every generated
	// packet enters the Figure 5 relay path via ingest.
	root := sys.Members.At(tree.Root)
	root.agent.Start()
	sys.Pump(root.ep.Failed, root.ingest)
	return sys, nil
}

func (sys *System) addNode(id int) error {
	parent := -1
	if p, ok := sys.Tree().Parent(id); ok {
		parent = p
	}
	ep := transport.NewEndpoint(sys.Net, id)
	sched := ep.Scheduler()
	kids := sys.Tree().Children(id)
	n := &Node{
		sys:      sys,
		id:       id,
		ep:       ep,
		parent:   parent,
		children: make([]*childInfo, 0, len(kids)),
		ws:       workset.New(),
		ticket:   sketch.NewTicket(sys.perms),
		filter:   bloom.NewForCapacity(recoveryWindow, bloomFPRate),
		pending:  -1,
		lfDelta:  0.01,
	}
	sys.Col.Track(id)
	for _, c := range kids {
		f, err := n.openFlow(c)
		if err != nil {
			return err
		}
		n.children = append(n.children, newChild(c, f))
	}
	n.agent = ransub.NewAgent(ep, sys.cfg.RanSub, parent, kids)
	n.agent.TicketFn = func() *sketch.Ticket { return n.ticket }
	n.agent.OnDistribute = n.onDistribute
	ep.OnData(n.onData)
	ep.OnControl(n.onControl)
	// Periodic maintenance, de-phased per node to avoid lockstep.
	// Relative to now: at deploy (virtual time zero) this is identical
	// to absolute, and it lets addNode serve late joiners. The jitter is
	// the node's one draw, so its stream is built here and dropped.
	jitter := sim.Duration(sched.RNG(int64(id)*7919 + 0x42756c6c).Int63n(int64(filterRefresh)))
	now := sched.Now()
	sched.ScheduleArg(now+filterRefresh+jitter, refreshEvent, n)
	sched.ScheduleArg(now+evalInterval+jitter, evalEvent, n)
	sched.ScheduleArg(now+pumpInterval+jitter%pumpInterval, pumpEvent, n)
	if sys.Adversary() != nil {
		sys.armAdversary(n) // late joiners get the model's hooks too
	}
	sys.Members.Put(id, n)
	return nil
}

// ControlOverheadKbps returns the mean per-node control send rate over
// the elapsed run.
func (sys *System) ControlOverheadKbps() float64 {
	secs := sys.eng.Now().ToSeconds()
	if secs == 0 || sys.Members.Len() == 0 {
		return 0
	}
	var total uint64
	sys.Members.Range(func(_ int, n *Node) bool {
		_, out := n.ep.ControlBytes()
		total += out
		return true
	})
	return float64(total) * 8 / 1000 / secs / float64(sys.Members.Len())
}

// MeanSenders returns the average current sender-list size (mesh
// health diagnostic).
func (sys *System) MeanSenders() float64 {
	if sys.Members.Len() == 0 {
		return 0
	}
	var total int
	sys.Members.Range(func(_ int, n *Node) bool {
		total += len(n.senders)
		return true
	})
	return float64(total) / float64(sys.Members.Len())
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------

// onData handles a data packet from the parent stream or a peer.
func (n *Node) onData(from int, seq uint64, size int) {
	now := n.ep.Scheduler().Now()
	col := n.sys.Col
	col.Add(now, n.id, metrics.Raw, size)
	if from == n.parent {
		col.Add(now, n.id, metrics.Parent, size)
	}
	n.recvWindow += uint64(size)
	si := n.findSender(from)
	if n.ws.Contains(seq) {
		col.Add(now, n.id, metrics.Duplicate, size)
		if si != nil {
			si.dupPkts++
		}
		return
	}
	if si != nil {
		si.usefulPkts++
		si.usefulBytes += uint64(size)
	}
	col.Add(now, n.id, metrics.Useful, size)
	// Every first-copy packet — from the parent stream or recovered
	// from a peer — is relayed through the Figure 5 routine: a parent
	// that recovers a packet serves it to its children (§3.2).
	n.ingest(seq, size)
}

// ingest records a newly received (or source-generated) packet and
// propagates it: disjoint send to children, candidate queues of peers.
func (n *Node) ingest(seq uint64, size int) {
	n.ws.Add(seq)
	n.ticket.Add(seq)
	n.filter.Add(seq)
	n.arrivals.Set(seq, n.ep.Scheduler().Now())
	n.epochPkts++
	n.feedReceivers(seq)
	n.disjointSend(seq, size)
}

// feedReceivers enqueues seq at every receiving peer whose row and
// filter admit it.
func (n *Node) feedReceivers(seq uint64) {
	if n.sys.RefusesServe(n.id) {
		return
	}
	for _, rf := range n.receivers {
		if seq < rf.low {
			continue
		}
		if rf.rows > 1 && workset.RowOf(seq, rf.rows) != rf.mod {
			continue
		}
		if rf.filter != nil && rf.filter.Contains(seq) {
			continue
		}
		if seq <= rf.high {
			rf.holes.push(seq)
		} else {
			rf.fresh.push(seq)
		}
	}
}

// disjointSend is the Figure 5 send routine: assign ownership of the
// packet to the child whose sent proportion is farthest below its
// sending factor, then offer the packet to other children according to
// their limiting factors, transferring ownership if the owner's
// transport refuses.
func (n *Node) disjointSend(seq uint64, size int) {
	if len(n.children) == 0 || n.sys.RefusesRelay(n.id) {
		return
	}
	if !n.sys.cfg.DisjointSend {
		// Figure 10 ablation: attempt to send everything to everyone.
		for _, ci := range n.children {
			if ci.filter.Contains(seq) {
				continue
			}
			if ci.flow.TrySend(seq, size) {
				ci.filter.Add(seq)
			}
		}
		return
	}
	var total uint64
	for _, ci := range n.children {
		total += ci.sentOwned
	}
	// Owner: maximize sf_i - sent_i/total.
	var owner *childInfo
	best := math.Inf(-1)
	for _, ci := range n.children {
		prop := 0.0
		if total > 0 {
			prop = float64(ci.sentOwned) / float64(total)
		}
		if margin := ci.sf - prop; margin > best {
			best = margin
			owner = ci
		}
	}
	sent := false
	if owner != nil && owner.flow.TrySend(seq, size) {
		owner.sentOwned++
		owner.filter.Add(seq)
		sent = true
	}
	for _, ci := range n.children {
		if ci == owner && sent {
			continue
		}
		if ci.filter.Contains(seq) {
			continue
		}
		should := false
		if !sent {
			should = true // ownership transfer
		} else {
			// Test for available bandwidth: forward the lf_i fraction
			// of the stream deterministically by sequence number.
			interval := uint64(math.Round(1 / ci.lf))
			if interval < 1 {
				interval = 1
			}
			if seq%interval == 0 {
				should = true
			}
		}
		if !should {
			continue
		}
		if ci.flow.TrySend(seq, size) {
			if !sent {
				ci.sentOwned++ // received ownership
			} else {
				ci.lf = math.Min(1, ci.lf+n.lfDelta)
			}
			ci.filter.Add(seq)
			sent = true
		} else if sent {
			ci.lf = math.Max(n.lfDelta, ci.lf-n.lfDelta)
		}
	}
}

// ---------------------------------------------------------------------
// RanSub epoch handling and peer discovery
// ---------------------------------------------------------------------

func (n *Node) onDistribute(epoch int, set []ransub.Entry) {
	n.lastSet = set
	n.epochHousekeeping()
	n.maybeRequestPeer()
}

// epochHousekeeping updates sending factors from fresh descendant
// counts and resets per-epoch ownership proportions.
func (n *Node) epochHousekeeping() {
	if len(n.children) > 0 {
		total := 0
		for _, ci := range n.children {
			total += n.agent.ChildSubtreeSize(ci.node)
		}
		for _, ci := range n.children {
			if total > 0 {
				ci.sf = float64(n.agent.ChildSubtreeSize(ci.node)) / float64(total)
			} else {
				ci.sf = 1 / float64(len(n.children))
			}
			ci.sentOwned = 0
			ci.filter.Reset()
		}
	}
	// "One more packet per epoch": scale lf adjustments to the epoch's
	// traffic volume.
	if n.epochPkts > 0 {
		n.lfDelta = 1 / math.Max(20, float64(n.epochPkts))
	}
	n.epochPkts = 0
}

// maybeRequestPeer fills a free sender slot with the best candidate of
// the latest RanSub set: the one whose summary ticket resembles this
// node's least (§3.3).
func (n *Node) maybeRequestPeer() {
	if len(n.senders) >= n.sys.cfg.MaxSenders || n.pending >= 0 || len(n.lastSet) == 0 {
		return
	}
	candidates := n.candScratch[:0]
	for _, e := range n.lastSet {
		if e.Node == n.id || e.Node == n.parent {
			continue
		}
		if n.sys.Crashed(e.Node) {
			continue // skip peers known to have crashed
		}
		if n.findSender(e.Node) != nil {
			continue
		}
		candidates = append(candidates, e)
	}
	n.candScratch = candidates[:0]
	if len(candidates) == 0 {
		return
	}
	var chosen ransub.Entry
	best := math.Inf(1)
	for _, e := range candidates {
		r := 1.0
		if e.Ticket != nil {
			r = sketch.Resemblance(n.ticket, e.Ticket)
		}
		if r < best {
			best = r
			chosen = e
		}
	}
	n.pending = chosen.Node
	msg := &peerRequestMsg{filter: n.filter.Clone(), low: n.ws.Low(), high: n.ws.High()}
	n.ep.SendControl(chosen.Node, msg, n.filter.SizeBytes()+24)
}

// ---------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------

func (n *Node) onControl(from int, payload any, size int) {
	if n.agent.HandleControl(from, payload) {
		return
	}
	switch m := payload.(type) {
	case *peerRequestMsg:
		n.onPeerRequest(from, m)
	case *peerAcceptMsg:
		n.onPeerAccept(from)
	case *peerRejectMsg:
		if n.pending == from {
			n.pending = -1
		}
	case *filterRefreshMsg:
		n.onFilterRefresh(from, m)
	case *peerDropMsg:
		n.onPeerDrop(from, m)
	}
}

// onPeerRequest: a prospective receiver asks us to serve it.
func (n *Node) onPeerRequest(from int, m *peerRequestMsg) {
	if n.findReceiver(from) != nil {
		n.ep.SendControl(from, &peerAcceptMsg{}, smallMsgSize)
		return
	}
	if len(n.receivers) >= n.sys.cfg.MaxReceivers || from == n.id {
		n.ep.SendControl(from, &peerRejectMsg{}, smallMsgSize)
		return
	}
	flow, err := n.openFlow(from)
	if err != nil {
		n.ep.SendControl(from, &peerRejectMsg{}, smallMsgSize)
		return
	}
	rf := n.newReceiver(from, flow, m.filter, m.low, m.high)
	n.addReceiver(rf)
	n.rebuildQueue(rf)
	n.ep.SendControl(from, &peerAcceptMsg{}, smallMsgSize)
}

// onPeerAccept: a candidate agreed to serve us.
func (n *Node) onPeerAccept(from int) {
	if n.pending == from {
		n.pending = -1
	}
	if n.findSender(from) != nil {
		return
	}
	if len(n.senders) >= n.sys.cfg.MaxSenders {
		// Filled up while the request was in flight.
		n.ep.SendControl(from, &peerDropMsg{bySender: false}, smallMsgSize)
		return
	}
	n.addSender(&senderInfo{node: from, mod: -1}) // gets a free row
	n.reassignRows()
	n.sendRefreshes()
}

// reassignRows keeps each sender on a distinct row of the Figure 4
// sequence matrix (s = current sender count) while changing as few
// existing assignments as possible, so membership churn does not
// momentarily overlap every sender's row. The sender list is sorted by
// node id, so conflict resolution order is deterministic.
func (n *Node) reassignRows() {
	s := len(n.senders)
	used := slices.Grow(n.rowUsed[:0], s)[:s]
	clear(used)
	n.rowUsed = used
	conflicted := n.rowConflicts[:0]
	for _, si := range n.senders {
		if si.mod >= 0 && si.mod < s && !used[si.mod] {
			used[si.mod] = true
		} else {
			conflicted = append(conflicted, si)
		}
	}
	next := 0
	for _, si := range conflicted {
		for used[next] {
			next++
		}
		si.mod = next
		used[next] = true
	}
	clear(conflicted)
	n.rowConflicts = conflicted[:0]
}

// sendRefreshes pushes a fresh filter/range/row assignment to every
// sender. The filter is snapshotted once per round and every sender
// gets that one snapshot, which receivers only read.
func (n *Node) sendRefreshes() {
	if len(n.senders) == 0 {
		return
	}
	rows := len(n.senders)
	filter := n.filter.Clone()
	for _, si := range n.senders {
		msg := &filterRefreshMsg{
			filter: filter,
			low:    n.ws.Low(), high: n.ws.High(),
			mod: si.mod, rows: rows,
			recvBytes: n.recvWindow,
		}
		n.ep.SendControl(si.node, msg, n.filter.SizeBytes()+32)
	}
}

// onFilterRefresh: one of our receivers updated its filter and range.
func (n *Node) onFilterRefresh(from int, m *filterRefreshMsg) {
	rf := n.findReceiver(from)
	if rf == nil {
		return
	}
	rowChanged := m.mod != rf.mod || m.rows != rf.rows
	rf.filter = m.filter
	rf.low, rf.high = m.low, m.high
	rf.mod, rf.rows = m.mod, m.rows
	rf.recvBytes = m.recvBytes
	// Forget suppressed sends old enough that the receiver's fresh
	// filter has had time to reflect them; keep recent (in-flight)
	// entries so a refresh does not trigger resends. Lost peer packets
	// therefore retry after about one refresh cycle.
	rf.sentSince.DeleteOlder(n.ep.Scheduler().Now() - 2*sim.Second)
	n.rebuildQueue(rf)
	if rowChanged {
		// Row handoff: the filter in this refresh cannot reflect what
		// the previous row holder still has in flight, so serving the
		// inherited holes now would duplicate them. Defer them to the
		// next refresh, whose filter will be conclusive.
		rf.holes.reset()
	}
}

// rebuildQueue refills the receiver's queues with the packets it is
// missing in its row and range. It walks only the receiver's row of
// the working set (ForRow steps by the row count), in the ascending
// order a full scan filtered by row would visit, so the queues come out
// the same at a 1/rows share of the scan; a receiver's row is always
// in [0, rows), so one row is the whole set. The fresh queue starts
// over, so its gate instant goes too.
func (n *Node) rebuildQueue(rf *recvPeerInfo) {
	rf.holes.reset()
	rf.fresh.reset()
	rf.freshAt = 0
	n.ws.ForRow(rf.low, n.ws.High(), rf.rows, rf.mod, func(seq uint64) bool {
		if rf.filter != nil && rf.filter.Contains(seq) || rf.sentSince.Contains(seq) {
			return true
		}
		if seq <= rf.high {
			rf.holes.push(seq)
		} else {
			rf.fresh.push(seq)
		}
		return true
	})
}

// onPeerDrop tears down one side of a peering.
func (n *Node) onPeerDrop(from int, m *peerDropMsg) {
	if m.bySender {
		// Our sender dropped us.
		if n.removeSender(from) {
			n.reassignRows()
			n.sendRefreshes()
		}
		return
	}
	// Our receiver dropped us.
	if rf := n.removeReceiver(from); rf != nil {
		rf.flow.Close()
	}
}

// ---------------------------------------------------------------------
// Periodic maintenance
// ---------------------------------------------------------------------

// Maintenance cadence: how often a node refreshes its senders' filters
// (refreshTick), re-evaluates its peerings (evalTick, every two RanSub
// epochs) and drains its per-peer send queues (pumpTick).
const (
	filterRefresh = 5 * sim.Second
	evalInterval  = 10 * sim.Second
	pumpInterval  = 10 * sim.Millisecond
)

// Node ticks are scheduled with ScheduleArg and carry their node, so
// re-arming one builds no closure and firing it loads no per-node
// func value.
func pumpEvent(a any)    { a.(*Node).pumpTick() }
func refreshEvent(a any) { a.(*Node).refreshTick() }
func evalEvent(a any)    { a.(*Node).evalTick() }

// pumpTick drains each receiver's candidate queue within the flow's
// TFRC budget. Receivers are walked in ascending peer id order (the
// list is maintained sorted): shared emulated resources (link queues,
// budgets) make iteration order behaviourally significant, so runs are
// a pure function of (config, seed).
//
// Most ticks find no queued work, and those skip the walk: with
// n.queued == 0 every receiver's holes and fresh queues are empty, and
// pumpReceiver on two empty queues sends nothing and only writes
// freshAt = 0. An empty fresh queue already has freshAt == 0: only a
// gated drain that stops at a held head sets it, and every path that
// empties the queue (a drain that pops it empty, rebuildQueue,
// removeReceiver) clears it or drops the receiver. RefusesServe is
// pure, so testing n.queued first changes nothing. The tick is still
// re-armed every pumpInterval, so the event sequence is the same.
func (n *Node) pumpTick() {
	if n.ep.Failed() {
		return
	}
	if n.queued > 0 && !n.sys.RefusesServe(n.id) {
		for _, rf := range n.receivers {
			n.pumpReceiver(rf)
		}
	}
	sched := n.ep.Scheduler()
	sched.ScheduleArg(sched.Now()+pumpInterval, pumpEvent, n)
}

func (n *Node) pumpReceiver(rf *recvPeerInfo) {
	// Known holes first: the receiver has told us it lacks these.
	if !n.drainQueue(rf, &rf.holes, false) {
		return
	}
	// Then fresh data, in arrival order, behind the freshness gate.
	n.drainQueue(rf, &rf.fresh, true)
}

// freshnessDelay gates serving packets beyond a receiver's advertised
// High: a peer serves such fresh packets only after holding them this
// long (one refresh plus a second), giving the receiver's parent
// stream first chance and avoiding duplicate races. Holes within the
// advertised (Low, High) range are served immediately.
//
// A gated drain that stops at the fresh queue's head records in
// rf.freshAt the instant that head passes the gate, its arrival plus
// freshnessDelay, and later gated drains return at once until then,
// with no queue walk. That is exact because nothing else can change
// what the walk would find first: pushes go to the tail, only the
// window trim in slideWindow changes whether the head is held or when
// it arrived, and only rebuildQueue replaces the queue. Both of those
// clear freshAt.
const freshnessDelay = filterRefresh + sim.Second

// drainQueue serves candidates from q within the flow budget. It
// returns false when the budget ran out.
func (n *Node) drainQueue(rf *recvPeerInfo, q *seqQueue, gated bool) bool {
	size := n.sys.Stream.PacketSize
	now := n.ep.Scheduler().Now()
	if gated {
		if now < rf.freshAt {
			return true
		}
		rf.freshAt = 0
	}
	for q.len() > 0 {
		seq := q.peek()
		if !n.ws.Held(seq) {
			q.popFront()
			continue
		}
		// Freshness gate: packets beyond the receiver's advertised High
		// are served only once the parent stream has had its chance.
		// The fresh queue is in arrival order, so the tail is fresher.
		if gated {
			arrived, _ := n.arrivals.Get(seq)
			if at := arrived + freshnessDelay; now < at {
				rf.freshAt = at
				return true
			}
		}
		if rf.sentSince.Contains(seq) {
			q.popFront()
			continue
		}
		if rf.filter != nil && rf.filter.Contains(seq) {
			q.popFront()
			continue
		}
		if !rf.flow.TrySend(seq, size) {
			return false // out of budget; keep the queue
		}
		q.popFront()
		rf.sentSince.Set(seq, now)
		rf.sentBytes += uint64(size)
	}
	return true
}

// rotateRows advances every sender's matrix row by one (Figure 4-b:
// "the receiver requests different rows from senders" as the range
// advances). Rotation keeps rows disjoint at any instant while letting
// holes left by a weak or poorly-stocked sender be covered by a
// different sender in the next cycle — without it, a node's coverage
// of row i could never exceed its single row-i sender's coverage.
func (n *Node) rotateRows() {
	s := len(n.senders)
	if s <= 1 {
		return
	}
	for _, si := range n.senders {
		si.mod = (si.mod + 1) % s
	}
}

// refreshTick slides the recovery window (rebuilding the filter and
// updating the ticket), rotates row assignments, and updates all
// senders.
func (n *Node) refreshTick() {
	if n.ep.Failed() {
		return
	}
	n.slideWindow()
	n.refreshCount++
	// Rotate on alternate refreshes: often enough that holes left by a
	// weak sender reach a different sender well within the recovery
	// window, rare enough that in-flight packets from the previous
	// assignment seldom collide with the new one.
	if n.refreshCount%2 == 0 {
		n.rotateRows()
	}
	n.sendRefreshes()
	n.recvWindow = 0
	sched := n.ep.Scheduler()
	sched.ScheduleArg(sched.Now()+filterRefresh, refreshEvent, n)
}

// A node keeps the last recoveryWindow sequence numbers recoverable:
// they bound its working set and populate its Bloom filter, which is
// sized for them at a bloomFPRate false-positive rate.
const (
	recoveryWindow = 2000
	bloomFPRate    = 0.03
)

// slideWindow trims the working set to the recovery window, rebuilds
// the Bloom filter over the survivors and brings the summary ticket up
// to date. The ticket is not rebuilt: Expire empties only the entries
// whose minimum came from a trimmed seq, and Refill recomputes those
// over the survivors. That equals a rebuild because ingest is the one
// place that adds to the working set, the ticket and the filter, and
// it adds to all three: the ticket holds the minima over exactly the
// seqs the set holds, so an entry whose minimum survives the trim is
// already the survivors' minimum (see package sketch).
//
// Besides rebuildQueue, the trim is the one thing that can change what
// a gated drain finds at a fresh queue's head (it may drop the head or
// its arrival stamp), so it clears every receiver's freshAt.
func (n *Node) slideWindow() {
	if n.ws.Empty() {
		return
	}
	hi := n.ws.High()
	if hi > recoveryWindow {
		n.ws.TrimBelow(hi - recoveryWindow)
		n.arrivals.DeleteBelow(n.ws.Low())
		for _, rf := range n.receivers {
			rf.freshAt = 0
		}
	}
	n.filter.Reset()
	n.ticket.Expire(n.ws.Low())
	n.ws.ForRange(n.ws.Low(), hi, func(seq uint64) bool {
		n.filter.Add(seq)
		n.ticket.Refill(seq)
		return true
	})
}

// evalTick is §3.4: re-evaluate senders (drop wasteful or least useful)
// and receivers (drop the one benefiting least).
func (n *Node) evalTick() {
	if n.ep.Failed() {
		return
	}
	n.evalSenders()
	n.evalReceivers()
	sched := n.ep.Scheduler()
	sched.ScheduleArg(sched.Now()+evalInterval, evalEvent, n)
}

const (
	minEvalSample      = 20  // packets before a sender can be judged
	duplicateThreshold = 0.5 // duplicate fraction above which a sender is dropped
)

func (n *Node) evalSenders() {
	if len(n.senders) == 0 {
		return
	}
	var drop *senderInfo
	// First: any sender above the duplicate threshold (ties broken by
	// node id for determinism — the list is sorted ascending).
	for _, si := range n.senders {
		total := si.usefulPkts + si.dupPkts
		if total >= minEvalSample &&
			float64(si.dupPkts)/float64(total) > duplicateThreshold {
			if drop == nil || si.dupPkts > drop.dupPkts {
				drop = si
			}
		}
	}
	// Otherwise, when the list is full, the least useful sender makes
	// room for a trial slot.
	if drop == nil && len(n.senders) >= n.sys.cfg.MaxSenders {
		for _, si := range n.senders {
			if drop == nil || si.usefulBytes < drop.usefulBytes {
				drop = si
			}
		}
	}
	if drop != nil {
		n.removeSender(drop.node)
		n.ep.SendControl(drop.node, &peerDropMsg{bySender: false}, smallMsgSize)
		n.reassignRows()
		n.sendRefreshes()
	}
	for _, si := range n.senders {
		si.usefulPkts, si.dupPkts, si.usefulBytes = 0, 0, 0
	}
	// A freed slot is refilled from the most recent RanSub set.
	n.maybeRequestPeer()
}

func (n *Node) evalReceivers() {
	if len(n.receivers) < n.sys.cfg.MaxReceivers {
		for _, rf := range n.receivers {
			rf.sentBytes = 0
		}
		return
	}
	// Drop the receiver acquiring the least portion of its bandwidth
	// through us (ties broken by node id for determinism — the list is
	// sorted ascending).
	var drop *recvPeerInfo
	worst := math.Inf(1)
	for _, rf := range n.receivers {
		portion := float64(rf.sentBytes) / math.Max(1, float64(rf.recvBytes))
		if portion < worst {
			worst = portion
			drop = rf
		}
	}
	if drop != nil {
		drop.flow.Close()
		n.removeReceiver(drop.node)
		n.ep.SendControl(drop.node, &peerDropMsg{bySender: true}, smallMsgSize)
	}
	for _, rf := range n.receivers {
		rf.sentBytes = 0
	}
}
