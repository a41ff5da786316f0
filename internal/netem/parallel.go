package netem

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// This file holds the sharded execution mode: conservative parallel
// discrete-event simulation over a deterministic partition of the
// topology (topology.PartitionShards). Each shard owns one event heap.
// Shard 0's heap runs on the calling goroutine, the coordinator; the
// others run on workers that live for the whole run. A packet can only
// reach another shard across a cut link, and every cut link delays it
// by at least L, the plan's lookahead (ShardPlan.Lookahead, fixed with
// the graph).
//
// The coordinator is the only code that decides anything, and it
// decides only at window boundaries, where every worker is waiting: it
// runs the global engine, sizes the next window and releases exactly
// the shards holding events inside it (runSharded lists the steps). A
// worker only runs windows: it executes its heap strictly below the end
// posted to its release box and posts that end to its done box. Once
// the coordinator has read every released shard's done box, it drains
// the cross-shard handoffs in a deterministically sorted order. Every
// event of a window ran at t >= its earliest event minNext, and the
// window ends by minNext + L, so a handoff it parked arrives at or
// beyond the boundary that delivers it (exchange checks this). That
// keeps the event schedule, and with it every trace and metric,
// byte-identical to the serial run at any shard count (CONTRIBUTING
// rule 10 states the argument).

// xferEntry pairs a handoff with its source shard for the barrier sort.
type xferEntry struct {
	h   handoff
	src int
}

// compareXfer orders handoffs by (arrival time, producing-hop time,
// source shard) — a pure function of simulation state.
func compareXfer(a, b xferEntry) int {
	if c := cmp.Compare(a.h.at, b.h.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.h.schedAt, b.h.schedAt); c != 0 {
		return c
	}
	return cmp.Compare(a.src, b.src)
}

// mailbox carries a virtual time from one writer goroutine to one
// reader goroutine, and its value only grows: the coordinator posts
// window ends to a worker's release box, and the worker posts each end
// it has finished to its done box. Ends strictly increase, so a reader
// waits for a value past the last one it saw.
// The reader spins first (a busy shard is re-released within the
// coordinator's few hundred nanoseconds), yields, then parks on the
// condition variable (idle shards burn no CPU while others work
// through long windows or the coordinator runs global phases).
type mailbox struct {
	v    atomic.Int64 // a sim.Time
	mu   sync.Mutex
	cond *sync.Cond
	_    [40]byte // keep neighbouring boxes off one cache line
}

// stopAt, posted to a release box, ends the worker: it lies past every
// window end.
const stopAt = sim.Time(math.MaxInt64)

func newMailbox(t sim.Time) *mailbox {
	m := &mailbox{}
	m.v.Store(int64(t))
	m.cond = sync.NewCond(&m.mu)
	return m
}

// post publishes t and wakes the reader. A value that does not grow
// would never satisfy a wait, so it panics instead of leaving the
// reader parked for good.
func (m *mailbox) post(t sim.Time) {
	if old := sim.Time(m.v.Load()); t <= old {
		panic(fmt.Sprintf("netem: mailbox post %d after %d: posts must grow", t, old))
	}
	m.mu.Lock()
	m.v.Store(int64(t))
	m.cond.Signal()
	m.mu.Unlock()
}

// wait blocks until the box holds a value greater than old and
// returns it.
func (m *mailbox) wait(old sim.Time) sim.Time {
	for i := 0; i < 4096; i++ {
		if t := sim.Time(m.v.Load()); t > old {
			return t
		}
		if i >= 256 {
			runtime.Gosched()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if t := sim.Time(m.v.Load()); t > old {
			return t
		}
		m.cond.Wait()
	}
}

// AutoShardCount is the sentinel EnableShards accepts in place of an
// explicit shard count: the count is chosen by topology.AutoShards
// from the topology's node weights and the machine's core count
// (bullet-sim surfaces it as "-shards auto"). Like any other count, it
// never affects simulation output bytes.
const AutoShardCount = -1

// EnableShards partitions the topology into at most k shards and
// switches Run to the sharded engine. It returns the effective shard
// count, which may be lower than requested (and is 1 — serial — when
// k <= 1 or the topology yields a single atom). Passing AutoShardCount
// lets topology.AutoShards pick k from the topology's load and
// runtime.GOMAXPROCS. It must be called before any participant
// registers or schedules work: per-node schedulers are handed out
// based on the partition.
//
// Every shard engine is constructed with the global engine's seed, so
// sim.Engine.RNG streams are identical regardless of which engine
// serves them, and the per-link-direction loss streams (keyed off the
// same seed) are untouched: sharding never perturbs a single draw.
func (n *Network) EnableShards(k int) int {
	if k == AutoShardCount {
		k = topology.AutoShards(n.g, runtime.GOMAXPROCS(0))
	}
	if k <= 1 {
		return 1
	}
	plan := topology.PartitionShards(n.g, k)
	if plan.K <= 1 {
		return 1
	}
	n.plan = &plan
	n.ctxs = make([]shardCtx, plan.K)
	for i := range n.ctxs {
		n.ctxs[i].eng = sim.NewEngine(n.eng.Seed())
		n.ctxs[i].out = make([][]handoff, plan.K)
	}
	return plan.K
}

// Shards returns the effective shard count (1 for serial runs).
func (n *Network) Shards() int {
	if n.plan == nil {
		return 1
	}
	return n.plan.K
}

// ShardOf returns the shard index executing node's events (0 for
// serial runs).
func (n *Network) ShardOf(node int) int { return n.shardIdx(node) }

// Run executes the simulation up to and including virtual time until:
// serially on the global engine, or across the shard engines when
// EnableShards is active. All engine clocks end at until.
func (n *Network) Run(until sim.Time) sim.Time {
	if n.plan == nil {
		return n.eng.Run(until)
	}
	n.runSharded(until)
	return until
}

// runWindow executes shard i's events strictly before end, charging the
// wall-clock time to the shard's busy counter for load observability.
func (n *Network) runWindow(i int, end sim.Time) {
	t0 := time.Now()
	n.ctxs[i].eng.RunBefore(end)
	n.ctxs[i].busyNanos += time.Since(t0).Nanoseconds()
}

// runSharded is the conservative-PDES loop of windows. Worker
// goroutines for shards 1..K-1 are spawned once and wait on their
// release boxes whenever they are not executing a window; shard 0 runs
// here, on the coordinator. At each window boundary b, with every
// worker waiting, the coordinator:
//
//  1. aligns every clock to b and runs the global engine through b
//     (scenario callbacks, membership, World.At). These may mutate the
//     graph, touch shared protocol state and send packets, which go
//     straight into the shard heaps;
//  2. applies any pending route invalidation and refreshes the link
//     records if the link generation moved, so routes and links are
//     stable through the window. The lookahead L is the plan's: no
//     mutation changes a link's delay, and a down cut link only makes
//     L shorter than it need be;
//  3. fixes limit, the global engine's next event (which must run
//     single-threaded at its exact time) or until + 1 (so the last
//     window includes events at until);
//  4. if no shard holds an event before limit, jumps to it. Otherwise
//     it posts end = min(minNext + L, limit) to the release boxes of
//     the shards holding events before end, runs shard 0's window
//     [b, end) itself, and reads the done box of every shard it
//     released: each worker posts end there once its window has run.
//     Then it drains the handoffs they parked into the destination
//     heaps before the next global phase, so they precede anything
//     that phase schedules at the same instant, exactly as they would
//     serially.
//
// Every box starts at the run's first boundary, below every end of
// this run; the ends posted after it strictly increase.
func (n *Network) runSharded(until sim.Time) {
	K := n.plan.K
	start := n.eng.Now()
	release := make([]*mailbox, K) // index 0 unused: shard 0 is the coordinator's
	done := make([]*mailbox, K)
	var exited sync.WaitGroup
	exited.Add(K - 1)
	for i := 1; i < K; i++ {
		release[i], done[i] = newMailbox(start), newMailbox(start)
		go func(i int) {
			defer exited.Done()
			for end := start; ; {
				if end = release[i].wait(end); end == stopAt {
					return
				}
				n.runWindow(i, end)
				done[i].post(end)
			}
		}(i)
	}
	defer func() {
		for i := 1; i < K; i++ {
			release[i].post(stopAt)
		}
		exited.Wait()
	}()

	L := n.plan.Lookahead
	next := make([]sim.Time, K) // each shard's earliest event, capped at limit
	for b := start; b <= until; {
		for i := range n.ctxs {
			n.ctxs[i].eng.AdvanceTo(b)
		}
		n.eng.Run(b)
		n.rt.Sync()
		if n.g.LinkGen() != n.linkGen {
			n.syncLinks()
		}
		limit := until + 1
		if t, ok := n.eng.NextAt(); ok && t < limit {
			limit = t
		}
		minNext := limit
		for i := range n.ctxs {
			next[i] = limit
			if t, ok := n.ctxs[i].eng.NextAt(); ok && t < limit {
				next[i] = t
				minNext = min(minNext, t)
			}
		}
		if minNext == limit {
			b = limit
			continue
		}
		end := limit
		if L > 0 && minNext+L < end {
			end = minNext + L
		}
		n.parallel = true
		for i := 1; i < K; i++ {
			if next[i] < end {
				release[i].post(end)
			}
		}
		if next[0] < end {
			n.runWindow(0, end)
		}
		for i := 1; i < K; i++ {
			if next[i] < end {
				done[i].wait(b)
			}
		}
		n.parallel = false
		n.exchange(end)
		b = end
	}
	n.eng.Run(until)
	for i := range n.ctxs {
		n.ctxs[i].eng.AdvanceTo(until)
	}
}

// ShardStat describes one shard's share of a sharded run: its static
// slice of the partition (nodes, clients, planned weight) and the load
// it actually carried (events executed, wall-clock nanoseconds spent
// executing them). Events are deterministic; BusyNanos is wall-clock
// and varies run to run — it is an observability signal, never an
// input to the simulation.
type ShardStat struct {
	Shard     int
	Nodes     int
	Clients   int
	Weight    int
	Events    uint64
	BusyNanos int64
}

// RunLoad is a run's executed-event accounting: the per-shard tables
// (nil for serial runs) plus the global engine's own count — scenario
// timers and graph mutations in sharded mode, everything in serial
// mode. Because sharding never adds, drops, or duplicates a logical
// event, TotalEvents is invariant across shard counts: a serial run
// fires exactly as many events as any sharded run of the same
// experiment, just all on one engine.
type RunLoad struct {
	Shards       []ShardStat
	GlobalEvents uint64
}

// TotalEvents returns the run's executed events across the global
// engine and every shard.
func (l RunLoad) TotalEvents() uint64 {
	t := l.GlobalEvents
	for i := range l.Shards {
		t += l.Shards[i].Events
	}
	return t
}

// RunLoad returns the run's executed-event accounting so far. Call it
// after Run returns: it must not race a running window. Counters are
// cumulative across run segments.
func (n *Network) RunLoad() RunLoad {
	l := RunLoad{GlobalEvents: n.eng.Fired()}
	if n.plan == nil {
		return l
	}
	l.Shards = make([]ShardStat, n.plan.K)
	for i := range l.Shards {
		st := &l.Shards[i]
		st.Shard = i
		st.Events = n.ctxs[i].eng.Fired()
		st.BusyNanos = n.ctxs[i].busyNanos
		st.Weight = n.plan.Weights[i]
	}
	for node, s := range n.plan.ShardOf {
		l.Shards[s].Nodes++
		if n.g.Nodes[node].Kind == topology.Client {
			l.Shards[s].Clients++
		}
	}
	return l
}

// exchange drains every shard's outboxes into the destination shard
// heaps. Handoffs bound for one shard are merged across sources and
// stably sorted by (arrival time, producing-hop time, source shard) —
// a pure function of the simulation state — so the order they are
// pushed in, and hence tie-breaking against all other events, is
// independent of goroutine timing. Each packet moves into the
// destination shard's arena on the way (see adopt). end is the window
// that produced the handoffs: one stamped before it would have arrived
// inside that window, after its destination may already have run past
// it, so exchange panics rather than deliver it late.
func (n *Network) exchange(end sim.Time) {
	K := n.plan.K
	for dst := 0; dst < K; dst++ {
		n.xq = n.xq[:0]
		for src := 0; src < K; src++ {
			box := n.ctxs[src].out[dst]
			for _, h := range box {
				n.xq = append(n.xq, xferEntry{h: h, src: src})
			}
			n.ctxs[src].out[dst] = box[:0]
		}
		if len(n.xq) > 1 {
			slices.SortStableFunc(n.xq, compareXfer)
		}
		eng := n.ctxs[dst].eng
		for _, e := range n.xq {
			if e.h.at < end {
				panic(fmt.Sprintf("netem: handoff from shard %d to %d arrives at %d, inside the window ending at %d", e.src, dst, e.h.at, end))
			}
			eng.ScheduleArg(e.h.at, n.hopFn, n.adopt(e.h.f, e.src, dst))
		}
	}
	n.xq = n.xq[:0]
}
