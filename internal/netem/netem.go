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
// whose destination became unreachable. On a static topology all of
// this reduces to one integer comparison per hop and forwarding is
// byte-identical to a fully memoized emulator.
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

// Config tunes the emulator.
type Config struct {
	// QueueDelayLimit bounds per-link queuing delay of data packets: a
	// wait past half of it is dropped early with probability rising
	// linearly to 1 at the limit. Default 150ms.
	QueueDelayLimit sim.Duration
}

// dirState is the mutable state of one link direction, padded to 32
// bytes so a link's two directions share one cache line and neither
// straddles two. Drop and packet totals are per shard, in shardCtx.
type dirState struct {
	busyUntil sim.Time
	// draws counts the random numbers consumed by this link direction
	// (RED early drop, random loss). Each draw is a pure function of
	// (seed, direction, draw index), so the loss pattern a direction
	// observes depends only on its own traversal history — never on how
	// traffic elsewhere interleaves. That independence is what lets a
	// sharded run reproduce the serial loss sequence exactly: a
	// direction's traversals happen in the same relative order on its
	// owning shard as they do serially.
	draws uint64
	_     [2]uint64
}

// inflight is the pooled per-packet forwarding state. The routed path
// is computed once at Send (a shared slice from the router's cache) and
// carried with the packet, so on a static network no hop ever
// re-derives or re-looks-up the route. The path is stamped with the
// route epoch it was resolved at; if the epoch advances while the
// packet is in flight (a scenario failed a link, healed a partition,
// ...), the next hop re-resolves the remaining path from the packet's
// current node. It is 128 bytes — two cache lines, arena chunks being
// line-aligned — and a steady hop reads only the first: the header and
// the packet's Kind, Trace and Size.
type inflight struct {
	path  []int32 // link ids, traversal order; owned by the router cache
	i     int     // next path index to traverse
	cur   int     // current node
	epoch uint64  // route epoch path was resolved at
	pkt   Packet
}

// shardCtx is the mutable per-shard forwarding state. In a serial run
// there is exactly one; in a sharded run shard i's context is written
// only by shard i's goroutine during parallel windows (hop events for
// a packet currently at node v run on v's shard) and by the
// single-threaded barrier phase otherwise, so none of it needs locks.
// Aggregate accounting is summed across contexts at read time.
type shardCtx struct {
	// pool backs the shard's in-flight packet states: chunked storage
	// owned by this shard, so one shard's forwarding working set packs
	// onto its own cache lines instead of interleaving with every other
	// shard's (and everything else on the heap).
	pool arena.Arena[inflight]
	// out holds cross-shard handoffs produced during the current
	// window, indexed by destination shard; drained (sorted) at the
	// barrier. nil in serial runs.
	out [][]handoff

	// busyNanos accumulates wall-clock time this shard spent executing
	// window events — the load-balance signal ShardStats reports.
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

	// Link stress: per traced sequence, per link, copy count. Allocated
	// lazily on the first traced packet, so runs that never set
	// Packet.Trace (TraceEvery off) pay nothing for the machinery.
	traceStress map[uint64]map[int32]int

	_ [64]byte // keep neighbouring shards' hot counters off one cache line
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
	cfg      Config
	dirs     []dirState // 2*linkID + direction
	handlers []Handler  // indexed by node id
	lossSeed uint64     // keys the per-direction draw streams

	// hopFn is the single reusable callback for hop events; paired with
	// the inflight free lists it makes steady-state forwarding
	// allocation-free (one event per hop, zero heap allocations).
	hopFn func(any)

	ctxs []shardCtx // len 1 serial; one per shard when sharded

	// Sharded execution state (nil/zero in serial runs): the
	// deterministic topology partition, one event heap per shard, and
	// the flag marking that shard goroutines are currently running (so
	// cross-shard scheduling must go through outboxes instead of
	// directly into the target heap).
	plan     *topology.ShardPlan
	engines  []*sim.Engine
	parallel bool
	xq       []xferEntry // barrier sort scratch, reused across rounds

	// Round state for the barrier loop (see parallel.go). roundLimit
	// and lookahead are written by the coordinator before the round's
	// first window is published; roundEnd advances at barrier
	// decisions. All reads and writes are ordered by the arrival
	// counter and the per-shard release words.
	wb         *wbarrier
	roundLimit sim.Time
	roundEnd   sim.Time
	lookahead  sim.Duration
}

// New creates an emulator over graph g routed by rt, scheduling on eng.
func New(eng *sim.Engine, g *topology.Graph, rt *topology.Router, cfg Config) *Network {
	if cfg.QueueDelayLimit <= 0 {
		cfg.QueueDelayLimit = 150 * sim.Millisecond
	}
	n := &Network{
		eng:      eng,
		g:        g,
		rt:       rt,
		cfg:      cfg,
		dirs:     make([]dirState, 2*len(g.Links)),
		handlers: make([]Handler, len(g.Nodes)),
		lossSeed: sim.Mix64(uint64(eng.Seed()) ^ 0x6e65746d),
		ctxs:     make([]shardCtx, 1),
	}
	n.hopFn = func(a any) { n.hop(a.(*inflight)) }
	return n
}

// dirFloat returns the next uniform [0,1) draw for link direction
// dirIdx: a counted, hash-derived stream per direction, independent of
// every other direction and of global event interleaving.
func (n *Network) dirFloat(dirIdx int, ds *dirState) float64 {
	ds.draws++
	z := sim.Mix64(n.lossSeed + uint64(dirIdx)*0x9E3779B97F4A7C15 + ds.draws*0xBF58476D1CE4E5B9)
	return float64(z>>11) * (1.0 / (1 << 53))
}

// shardIdx returns the shard owning node (0 in serial runs).
func (n *Network) shardIdx(node int) int {
	if n.plan == nil {
		return 0
	}
	return n.plan.ShardOf[node]
}

// engineFor returns the event heap executing node's events.
func (n *Network) engineFor(shard int) *sim.Engine {
	if n.engines == nil {
		return n.eng
	}
	return n.engines[shard]
}

// getInflight takes a forwarding state from the shard's arena.
func (c *shardCtx) getInflight() *inflight { return c.pool.Get() }

// putInflight retires f to the shard's arena, dropping payload
// references. A handed-off inflight retires into the arena of the shard
// it was delivered on, not the one that allocated it; arenas only ever
// grow, so drifting between shards is harmless.
func (c *shardCtx) putInflight(f *inflight) { c.pool.Put(f) }

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
	return n.engineFor(n.shardIdx(node))
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
	f := c.getInflight()
	f.pkt = pkt
	f.path = path
	f.i = 0
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
// network the epoch comparison never fires.
func (n *Network) hop(f *inflight) {
	// Serial runs resolve everything to shard 0 and the global engine up
	// front: hop is the single hottest callback in the process, and the
	// plan==nil checks buried in shardIdx/engineFor are measurable at
	// millions of hops per second.
	sh := 0
	eng := n.eng
	if n.plan != nil {
		sh = n.plan.ShardOf[f.cur]
		eng = n.engines[sh]
	}
	c := &n.ctxs[sh]
	if e := n.g.Epoch(); f.epoch != e {
		f.epoch = e
		f.path = n.rt.Path(f.cur, f.pkt.To)
		f.i = 0
		c.rerouted++
		if f.path == nil && f.cur != f.pkt.To {
			c.linkDownDrops++
			c.putInflight(f)
			return
		}
	}
	if f.i == len(f.path) {
		n.deliver(c, f.pkt)
		c.putInflight(f)
		return
	}
	lid := f.path[f.i]
	l := &n.g.Links[lid]
	if l.Down {
		// Invariant guard, not a normal path: every mutator that sets
		// Down also bumps the route epoch, so the re-resolution above
		// keeps current-epoch paths free of down links. This fires only
		// if Link state was mutated directly (Links is exported) without
		// going through the Graph mutators; dropping is the safe answer.
		c.linkDownDrops++
		c.putInflight(f)
		return
	}
	dir := 0
	next := l.B
	if f.cur == l.B {
		dir = 1
		next = l.A
	}
	dirIdx := 2*int(lid) + dir
	ds := &n.dirs[dirIdx]

	now := eng.Now()
	start := now
	if ds.busyUntil > start {
		start = ds.busyUntil
	}
	// Queue admission for data: probabilistic early drop (RED-style)
	// once the wait passes half the bound, ramping to certain drop at
	// the bound. Early drop gives transports a timely congestion signal
	// and breaks the phase synchronization a deterministic tail-drop
	// would impose on competing flows.
	if f.pkt.Kind == Data {
		wait := start - now
		limit := n.cfg.QueueDelayLimit
		if wait > limit/2 {
			p := float64(wait-limit/2) / float64(limit-limit/2)
			if p >= 1 || n.dirFloat(dirIdx, ds) < p {
				c.congestionDrops++
				c.putInflight(f)
				return
			}
		}
	}
	// Random loss is applied per traversal, before transmission.
	if f.pkt.Kind == Data && l.Loss > 0 && n.dirFloat(dirIdx, ds) < l.Loss {
		c.randomLossDrops++
		c.putInflight(f)
		return
	}
	ser := sim.Duration(float64(f.pkt.Size) / l.Bytes * float64(sim.Second))
	ds.busyUntil = start + ser
	if f.pkt.Trace {
		if c.traceStress == nil {
			c.traceStress = make(map[uint64]map[int32]int)
		}
		m := c.traceStress[f.pkt.Seq]
		if m == nil {
			m = make(map[int32]int)
			c.traceStress[f.pkt.Seq] = m
		}
		m[lid]++
	}
	arrive := ds.busyUntil + l.Delay
	f.i++
	f.cur = next
	if n.plan == nil {
		eng.ScheduleArg(arrive, n.hopFn, f)
		return
	}
	tgt := n.plan.ShardOf[next]
	if n.parallel && tgt != sh {
		// Cross-shard: the link is on the cut, so arrive lies at or
		// beyond the window boundary; park the packet for the barrier
		// exchange instead of touching the other shard's heap.
		c.out[tgt] = append(c.out[tgt], handoff{at: arrive, schedAt: now, f: f})
		return
	}
	n.engineFor(tgt).ScheduleArg(arrive, n.hopFn, f)
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
	var sum, cnt int
	// A traced packet's copies can cross links owned by different
	// shards, so the (seq, link) counts are merged across contexts
	// before aggregating.
	merged := make(map[uint64]map[int32]int)
	for i := range n.ctxs {
		for seq, links := range n.ctxs[i].traceStress {
			m := merged[seq]
			if m == nil {
				m = make(map[int32]int, len(links))
				merged[seq] = m
			}
			for lid, c := range links {
				m[lid] += c
			}
		}
	}
	for _, links := range merged {
		for _, c := range links {
			sum += c
			cnt++
			if c > max {
				max = c
			}
		}
	}
	if cnt == 0 {
		return 0, 0
	}
	return float64(sum) / float64(cnt), max
}
