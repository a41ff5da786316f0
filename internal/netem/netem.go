// Package netem is a deterministic packet-level network emulator: the
// stand-in for the ModelNet cluster emulator used in the Bullet paper's
// evaluation. Packets are forwarded hop-by-hop along shortest paths;
// each link direction models store-and-forward serialization at the
// link bandwidth, a FIFO queue with RED-style early drop of data
// packets (congestion loss: once a packet's queueing wait passes half
// the delay limit it is dropped with a probability that rises linearly
// to 1 at the limit; control packets are never queue-dropped),
// propagation delay, and independent random loss. Transports running
// above (TFRC) thus observe ModelNet-like loss and delay signals.
//
// The underlying topology may change mid-run (scenario-driven bandwidth
// shifts, link failures, partitions): the emulator stamps every packet
// with the route epoch its path was resolved at, re-resolves the
// remaining path from the packet's current node when the epoch
// advances, and drops packets that would traverse a failed link or
// whose destination became unreachable. Link state a hop reads lives in
// the emulator's own per-link records, copied from the Graph whenever
// its link generation (Graph.LinkGen) moves. On a static topology all
// of this reduces to two integer comparisons per hop, the route epoch
// and the link generation, and forwarding is byte-identical to a fully
// memoized emulator that reads the Graph live.
package netem

import (
	"bullet/internal/arena"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// Kind distinguishes application data from protocol control traffic.
type Kind uint8

const (
	// Data packets carry stream content; they are subject to queuing
	// drops and random link loss.
	Data Kind = iota
	// Control packets (RanSub sets, peering requests, Bloom filter
	// refreshes, TFRC feedback) consume link bandwidth and experience
	// queuing delay, but are delivered reliably, modeling small TCP
	// control transfers. Their bytes are accounted as overhead.
	Control
)

// Packet is the unit of transfer between two overlay participants.
// What every hop reads (Kind, Trace, Size) leads: see inflight.
type Packet struct {
	Kind    Kind
	Trace   bool   // participate in link-stress accounting
	FlowID  uint32 // transport framing, see below
	Size    int    // bytes on the wire
	To      int    // destination graph node
	From    int    // source graph node
	Seq     uint64 // data sequence number (Data packets)
	Payload any    // protocol message for Control packets

	// Transport framing, carried inline so neither a data packet nor a
	// TFRC report allocates a payload box (see package transport). Data:
	// FlowID, the per-flow sequence FlowSeq, the sender timestamp TS and
	// the sender's RTT estimate RTT. TFRC feedback (a Control packet
	// whose Payload is transport's marker value): FlowID, the loss event
	// rate in TS, the RTT sample in RTT, math.Float64bits of the receive
	// rate in FlowSeq. Unused by other Control packets.
	FlowSeq uint64
	TS      float64
	RTT     float64
}

// Handler receives packets addressed to a registered node.
type Handler func(pkt Packet)

// Config tunes the emulator. It has no settings.
type Config struct{}

// queueDelayLimit bounds per-link queuing delay of data packets: a wait
// past half of it is dropped early with probability rising linearly to
// 1 at the limit.
const queueDelayLimit = 150 * sim.Millisecond

// linkRec is the emulator's record of one link: everything a hop reads
// or writes, in 64 bytes, so a traversal touches one cache line of link
// state (an array of them starts on a line boundary). The endpoints,
// delay, bytes and loss are copies of the Graph's Link, refreshed by
// syncLinks whenever Graph.LinkGen moves. A down link keeps its delay
// negated — every Link.Delay is positive — so the down test reads a
// field the hop needs anyway. Index 0 of busyUntil and draws is the
// A-to-B direction, 1 the B-to-A. Drop and packet totals are per shard,
// in shardCtx.
type linkRec struct {
	a, b      int32
	delay     sim.Duration // Link.Delay, negated while the link is down
	bytes     float64      // Link.Bytes
	loss      float64      // Link.Loss
	busyUntil [2]sim.Time
	// draws counts the random numbers consumed by each direction (RED
	// early drop, random loss). Each draw is a pure function of (seed,
	// direction, draw index), so the loss pattern a direction observes
	// depends only on its own traversal history — never on how traffic
	// elsewhere interleaves. That independence is what lets a sharded
	// run reproduce the serial loss sequence exactly: a direction's
	// traversals happen in the same relative order on its owning shard
	// as they do serially.
	draws [2]uint64
}

// inflight is the pooled per-packet forwarding state. The routed path
// is computed once at Send (a shared slice from the router's cache) and
// carried with the packet, so on a static network no hop ever
// re-derives or re-looks-up the route. The path is stamped with the
// route epoch it was resolved at; if the epoch advances while the
// packet is in flight (a scenario failed a link, healed a partition,
// ...), the next hop re-resolves the remaining path from the packet's
// current node. The next link's id rides in the header, so a hop
// finds its link record without first loading the path, and loads the
// following id alongside the record. It is 128 bytes — two cache lines,
// arena chunks being line-aligned — and a steady hop reads only the
// first: the header and the packet's Kind, Trace and Size.
type inflight struct {
	path  []int32 // link ids, traversal order; owned by the router cache
	i     int32   // path index of lid
	lid   int32   // path[i], the next link to traverse; -1 at the destination
	cur   int     // current node
	epoch uint64  // route epoch path was resolved at
	pkt   Packet
}

// linkAt returns path[i], or -1 past the end of the path.
func linkAt(path []int32, i int32) int32 {
	if int(i) < len(path) {
		return path[i]
	}
	return -1
}

// shardCtx is the mutable per-shard forwarding state. In a serial run
// there is exactly one; in a sharded run shard i's context is written
// only by shard i's goroutine during parallel windows (hop events for
// a packet currently at node v run on v's shard) and by the
// single-threaded barrier phase otherwise, so none of it needs locks.
// Aggregate accounting is summed across contexts at read time.
type shardCtx struct {
	// pool backs the in-flight states of the packets at this shard's
	// nodes: chunked storage owned by this shard, so one shard's
	// forwarding working set packs onto its own cache lines instead of
	// interleaving with every other shard's (and everything else on the
	// heap). A packet crossing the cut moves to the destination's pool
	// (see adopt), so a pool takes back only what it issued.
	pool arena.Arena[inflight]
	// out holds cross-shard handoffs produced during the current
	// window, indexed by destination shard; drained (sorted) at the
	// barrier. nil in serial runs.
	out [][]handoff

	// busyNanos accumulates wall-clock time this shard spent executing
	// window events — the load-balance signal RunLoad reports.
	busyNanos int64

	// Per-shard slice of the aggregate accounting.
	dataBytesSent    uint64
	dataBytesDeliv   uint64
	controlBytes     uint64
	congestionDrops  uint64
	randomLossDrops  uint64
	linkDownDrops    uint64
	rerouted         uint64
	deliveredPackets uint64

	// Link stress: copies of each traced packet per link. Allocated
	// lazily on the first traced packet, so runs that never set
	// Packet.Trace (TraceEvery off) pay nothing for the machinery.
	traceStress map[stressKey]int

	// eng executes the events of this shard's nodes: the global engine
	// in a serial run, the shard's own engine in a sharded one. A serial
	// hop reads Network.eng instead, so this field sits after the ones
	// every hop touches.
	eng *sim.Engine

	_ [64]byte // keep neighbouring shards' hot counters off one cache line
}

// stressKey names one link crossed by one traced packet.
type stressKey struct {
	seq  uint64
	link int32
}

// handoff is one cross-shard packet transfer: the hop event to push
// into the destination shard's heap at the barrier. schedAt (the
// virtual time the producing hop ran) recovers the serial scheduling
// order of same-instant arrivals from different shards.
type handoff struct {
	at      sim.Time
	schedAt sim.Time
	f       *inflight
}

// Network emulates the physical topology for registered participants.
type Network struct {
	eng      *sim.Engine
	g        *topology.Graph
	rt       *topology.Router
	links    []linkRec // indexed by link id
	linkGen  uint64    // the Graph.LinkGen links was copied at
	handlers []Handler // indexed by node id
	lossSeed uint64    // keys the per-direction draw streams

	// hopFn is the single reusable callback for hop events; paired with
	// the inflight free lists it makes steady-state forwarding
	// allocation-free (one event per hop, zero heap allocations).
	hopFn func(any)

	ctxs []shardCtx // len 1 serial; one per shard when sharded

	// Sharded execution state (nil/zero in serial runs): the
	// deterministic topology partition and the flag marking that shard
	// goroutines are currently running (so cross-shard scheduling must
	// go through outboxes instead of directly into the target heap).
	plan     *topology.ShardPlan
	parallel bool
	xq       []xferEntry // barrier sort scratch, reused across windows
}

// New creates an emulator over graph g routed by rt, scheduling on eng.
func New(eng *sim.Engine, g *topology.Graph, rt *topology.Router, _ Config) *Network {
	n := &Network{
		eng:      eng,
		g:        g,
		rt:       rt,
		links:    make([]linkRec, len(g.Links)),
		handlers: make([]Handler, len(g.Nodes)),
		lossSeed: sim.Mix64(uint64(eng.Seed()) ^ 0x6e65746d),
		ctxs:     []shardCtx{{eng: eng}},
	}
	n.syncLinks()
	n.hopFn = func(a any) { n.hop(a.(*inflight)) }
	return n
}

// syncLinks copies the Graph's per-link state into the records and then
// stores the link generation it copied. It runs only while no shard
// goroutine does: from hop in a serial run or in the global phase, and
// from runSharded right after the global phase, so a parallel window
// never finds the generation moved.
func (n *Network) syncLinks() {
	for i := range n.g.Links {
		l, r := &n.g.Links[i], &n.links[i]
		r.a, r.b = int32(l.A), int32(l.B)
		r.delay, r.bytes, r.loss = l.Delay, l.Bytes, l.Loss
		if l.Down {
			r.delay = -l.Delay
		}
	}
	n.linkGen = n.g.LinkGen()
}

// dirFloat returns the next uniform [0,1) draw for link direction
// dirIdx, whose draw counter is *draws: a counted, hash-derived stream
// per direction, independent of every other direction and of global
// event interleaving.
func (n *Network) dirFloat(dirIdx int, draws *uint64) float64 {
	*draws++
	z := sim.Draw(n.lossSeed, uint64(dirIdx), *draws)
	return float64(z>>11) * (1.0 / (1 << 53))
}

// shardIdx returns the shard owning node (0 in serial runs).
func (n *Network) shardIdx(node int) int {
	if n.plan == nil {
		return 0
	}
	return n.plan.ShardOf[node]
}

// adopt moves f, issued by shard src's arena, into a forwarding state
// issued by shard dst's and returns the original to src's, so every
// arena takes back only what it issued: one-way traffic across the cut
// grows neither side. Callers run with every shard quiescent (the
// barrier exchange or the single-threaded global phase).
func (n *Network) adopt(f *inflight, src, dst int) *inflight {
	g := n.ctxs[dst].pool.Get()
	*g = *f
	n.ctxs[src].pool.Put(f)
	return g
}

// Engine returns the global simulation engine: the clock authority for
// deploy-time setup, scenario schedules, and membership events. Code
// running inside a node's events must use SchedulerFor(node) instead.
func (n *Network) Engine() *sim.Engine { return n.eng }

// SchedulerFor returns the *sim.Engine that executes node's events:
// the node's shard engine in a sharded run, the global engine
// otherwise. Endpoints capture it at construction; all node-local
// timers and clock reads go through it. Code holding it must only ever
// schedule work for its own node (or read its clock): cross-node
// communication goes through the emulator, never through another
// node's engine. Every shard engine is built with the global engine's
// seed, so RNG(id) yields the identical stream whichever engine serves
// it. The result is typed any because benchmark/run.go type-asserts it.
func (n *Network) SchedulerFor(node int) any {
	return n.ctxs[n.shardIdx(node)].eng
}

// Graph returns the topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Register installs the packet handler for node id, replacing any
// previous handler.
func (n *Network) Register(node int, h Handler) { n.handlers[node] = h }

// Unregister removes the handler for node id; packets in flight to it
// are silently discarded on arrival.
func (n *Network) Unregister(node int) { n.handlers[node] = nil }

// Send injects a packet at pkt.From at the current virtual time of
// From's shard. The packet traverses the fixed shortest path to pkt.To;
// it may be dropped on the way. The path is resolved once here (from
// the router's per-source memo) and carried with the packet. Send
// must be called from From's shard (an endpoint sending on behalf of
// its node, or the single-threaded barrier phase).
func (n *Network) Send(pkt Packet) {
	sh := n.shardIdx(pkt.From)
	c := &n.ctxs[sh]
	if pkt.Kind == Control {
		c.controlBytes += uint64(pkt.Size)
	} else {
		c.dataBytesSent += uint64(pkt.Size)
	}
	path := n.rt.Path(pkt.From, pkt.To)
	if path == nil && pkt.From != pkt.To {
		return // unreachable: dropped
	}
	f := c.pool.Get()
	f.pkt = pkt
	f.path = path
	f.i = 0
	f.lid = linkAt(path, 0)
	f.cur = pkt.From
	f.epoch = n.g.Epoch()
	n.hop(f)
}

// hop processes arrival of the packet at the input of path[i] and
// schedules the next-hop arrival. The inflight state is released to the
// pool when the packet is delivered or dropped.
//
// If the route epoch advanced while the packet was in flight, the
// remaining path is re-resolved from the packet's current node before
// the hop proceeds: packets reroute around failures mid-flight, and a
// packet whose destination became unreachable is dropped. On a static
// network the epoch comparison never fires, and neither does the link
// generation's, which refreshes the link records after any per-link
// mutation (bandwidth and loss changes move no epoch).
func (n *Network) hop(f *inflight) {
	// Serial runs resolve everything to shard 0 and the global engine up
	// front: hop is the single hottest callback in the process, and the
	// plan==nil check buried in shardIdx is measurable at millions of
	// hops per second.
	sh := 0
	eng := n.eng
	if n.plan != nil {
		sh = n.plan.ShardOf[f.cur]
		eng = n.ctxs[sh].eng
	}
	c := &n.ctxs[sh]
	if e := n.g.Epoch(); f.epoch != e {
		f.epoch = e
		f.path = n.rt.Path(f.cur, f.pkt.To)
		f.i = 0
		f.lid = linkAt(f.path, 0)
		c.rerouted++
		if f.path == nil && f.cur != f.pkt.To {
			c.linkDownDrops++
			c.pool.Put(f)
			return
		}
	}
	if n.g.LinkGen() != n.linkGen {
		n.syncLinks()
	}
	lid := f.lid
	if lid < 0 {
		n.deliver(c, f.pkt)
		c.pool.Put(f)
		return
	}
	// The record and the following link id do not depend on each other:
	// both loads issue at once.
	r := &n.links[lid]
	i := f.i + 1
	nextLid := linkAt(f.path, i)
	if r.delay < 0 {
		// Invariant guard, not a normal path: every mutator that takes a
		// link down also bumps the route epoch, so the re-resolution
		// above keeps current-epoch paths free of down links. Link state
		// is written only through the Graph mutators (a source guard
		// holds the rest of the module to it); dropping is the safe
		// answer should one ever mark a link down without the epoch.
		c.linkDownDrops++
		c.pool.Put(f)
		return
	}
	dir := 0
	next := r.b
	if f.cur == int(r.b) {
		dir = 1
		next = r.a
	}
	dirIdx := 2*int(lid) + dir

	now := eng.Now()
	start := now
	if r.busyUntil[dir] > start {
		start = r.busyUntil[dir]
	}
	// Queue admission for data: probabilistic early drop (RED-style)
	// once the wait passes half the bound, ramping to certain drop at
	// the bound. Early drop gives transports a timely congestion signal
	// and breaks the phase synchronization a deterministic tail-drop
	// would impose on competing flows.
	if f.pkt.Kind == Data {
		wait := start - now
		const limit = queueDelayLimit
		if wait > limit/2 {
			p := float64(wait-limit/2) / float64(limit-limit/2)
			if p >= 1 || n.dirFloat(dirIdx, &r.draws[dir]) < p {
				c.congestionDrops++
				c.pool.Put(f)
				return
			}
		}
	}
	// Random loss is applied per traversal, before transmission.
	if f.pkt.Kind == Data && r.loss > 0 && n.dirFloat(dirIdx, &r.draws[dir]) < r.loss {
		c.randomLossDrops++
		c.pool.Put(f)
		return
	}
	ser := sim.Duration(float64(f.pkt.Size) / r.bytes * float64(sim.Second))
	r.busyUntil[dir] = start + ser
	if f.pkt.Trace {
		if c.traceStress == nil {
			c.traceStress = make(map[stressKey]int)
		}
		c.traceStress[stressKey{f.pkt.Seq, lid}]++
	}
	arrive := r.busyUntil[dir] + r.delay
	f.i = i
	f.lid = nextLid
	f.cur = int(next)
	if n.plan == nil {
		eng.ScheduleArg(arrive, n.hopFn, f)
		return
	}
	tgt := n.plan.ShardOf[next]
	if tgt != sh {
		if n.parallel {
			// Cross-shard: the link is on the cut, so arrive lies at or
			// beyond the window boundary; park the packet for the
			// barrier exchange instead of touching the other shard's
			// heap.
			c.out[tgt] = append(c.out[tgt], handoff{at: arrive, schedAt: now, f: f})
			return
		}
		f = n.adopt(f, sh, tgt) // global phase: every shard is parked
	}
	n.ctxs[tgt].eng.ScheduleArg(arrive, n.hopFn, f)
}

func (n *Network) deliver(c *shardCtx, pkt Packet) {
	h := n.handlers[pkt.To]
	if h == nil {
		return
	}
	if pkt.Kind == Data {
		c.dataBytesDeliv += uint64(pkt.Size)
	}
	c.deliveredPackets++
	h(pkt)
}

// Stats is a snapshot of aggregate emulator accounting.
type Stats struct {
	DataBytesSent      uint64
	DataBytesDelivered uint64
	ControlBytes       uint64
	CongestionDrops    uint64
	RandomLossDrops    uint64
	// LinkDownDrops counts packets lost to failed links or partitions:
	// either the destination became unreachable mid-flight, or the next
	// link went down with no alternative route.
	LinkDownDrops uint64
	// ReroutedPackets counts in-flight packets that observed a route
	// epoch change and re-resolved their remaining path.
	ReroutedPackets  uint64
	DeliveredPackets uint64
}

// Stats returns a snapshot of aggregate counters, summed across the
// per-shard contexts.
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.ctxs {
		c := &n.ctxs[i]
		s.DataBytesSent += c.dataBytesSent
		s.DataBytesDelivered += c.dataBytesDeliv
		s.ControlBytes += c.controlBytes
		s.CongestionDrops += c.congestionDrops
		s.RandomLossDrops += c.randomLossDrops
		s.LinkDownDrops += c.linkDownDrops
		s.ReroutedPackets += c.rerouted
		s.DeliveredPackets += c.deliveredPackets
	}
	return s
}

// LinkStress summarizes link-stress accounting over traced packets, in
// the manner of §4.2: for each traced packet, the stress of a link is
// the number of copies of that packet that crossed it; Avg averages
// across all (packet, link) pairs and Max is the absolute maximum.
func (n *Network) LinkStress() (avg float64, max int) {
	// A traced packet's copies can cross links owned by different
	// shards, so the counts are merged across contexts first. Only
	// integers are summed, so map order cannot reach the result.
	stress := n.ctxs[0].traceStress
	if len(n.ctxs) > 1 {
		stress = make(map[stressKey]int)
		for i := range n.ctxs {
			for k, c := range n.ctxs[i].traceStress {
				stress[k] += c
			}
		}
	}
	if len(stress) == 0 {
		return 0, 0
	}
	var sum int
	for _, c := range stress {
		sum += c
		if c > max {
			max = c
		}
	}
	return float64(sum) / float64(len(stress)), max
}
