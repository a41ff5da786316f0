package netem

import (
	"cmp"
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
// topology (topology.PartitionShards). Each shard owns one event heap
// and runs windows bounded by L — the minimum propagation delay over
// the links crossing the cut, ShardPlan.Lookahead, fixed with the
// graph — with shard 0 inline on the calling goroutine and the rest on
// workers that live for the whole run. A packet can only reach another
// shard by traversing a cut link, so its arrival lies at or beyond the
// window boundary; handoffs are exchanged at the barrier in a
// deterministically sorted order, which makes the event schedule — and
// therefore every trace and metric — byte-identical to the serial run
// at any shard count.
//
// Windows are grouped into rounds. The coordinator fixes the round
// limit (the next global-engine event, or end of run — the only things
// that must execute single-threaded), publishes the first window end,
// and releases exactly the shards holding events inside it. The last
// shard to reach the window barrier decides — on provably quiescent
// state — whether the round must stop (a cross-shard handoff is
// parked, or nothing can run before the limit) or extend: when every
// outbox is empty, no pending event anywhere can produce a cross-shard
// arrival before minNext + L, so the next window runs through
// min(minNext + L, limit) and only the shards with events inside it
// are released. Idle shards stay parked across any number of window
// boundaries at zero cost, a window with one busy shard degenerates to
// an inline function call, and the exchange/global phases run only at
// round ends — the barriers that provably had work to do. Every event
// still executes in the window the serial schedule implies, so none of
// this perturbs output bytes.

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

// Release words pack a shard's next instruction into one atomic word,
// so a released shard learns everything from the load it was already
// spinning on — there is no separately published decision it could
// observe torn or stale.
//
//	bit 0: sense (flips every post; each word has one waiting owner)
//	bit 1: stop (worker: exit the run; coordinator: the round is over)
//	bits 2+: the window-end virtual time
const (
	stateSense = 1 << 0
	stateStop  = 1 << 1
)

func stateWord(end sim.Time, stop bool, sense uint32) uint64 {
	w := uint64(end)<<2 | uint64(sense)
	if stop {
		w |= stateStop
	}
	return w
}

// Decision outcomes of windowDecide for the shard that ran it.
const (
	actRun  = iota // run the window just published
	actPark        // leave the round and wait on the release word
	actOver        // the round is over (coordinator only)
)

// pword is one shard's release word: an atomic state plus a park path.
// The owner spins on the state first (a busy shard is re-released
// within the decider's few hundred nanoseconds), yields, then parks on
// the condition variable (idle shards burn no CPU while others work
// through long windows or the coordinator runs global phases).
type pword struct {
	state atomic.Uint64
	mu    sync.Mutex
	cond  *sync.Cond
	_     [40]byte // keep neighbouring words off one cache line
}

// post releases the owner with the next window end (or the stop bit).
// Posters are serialized by the round structure — the barrier decider
// or the coordinator between rounds — so reading the current sense
// outside the lock is safe.
func (p *pword) post(end sim.Time, stop bool) {
	w := stateWord(end, stop, uint32(p.state.Load()&stateSense)^1)
	p.mu.Lock()
	p.state.Store(w)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// wait blocks the owner until the word's sense differs from *sense,
// toggles *sense, and returns the word.
func (p *pword) wait(sense *uint32) uint64 {
	old := *sense
	*sense = old ^ 1
	for i := 0; i < 4096; i++ {
		if w := p.state.Load(); uint32(w&stateSense) != old {
			return w
		}
		if i >= 256 {
			runtime.Gosched()
		}
	}
	p.mu.Lock()
	for {
		w := p.state.Load()
		if uint32(w&stateSense) != old {
			p.mu.Unlock()
			return w
		}
		p.cond.Wait()
	}
}

// wbarrier is the window barrier: an arrival counter over the shards
// active in the current window, plus one release word per shard. The
// last arriver of a window runs windowDecide on quiescent state and
// releases exactly the shards active in the next window; everyone else
// breaks back to waiting on their own word.
//
// count packs the window's membership size (high 32 bits) and the
// arrivals so far (low 32 bits) into one word, reset by whoever
// publishes a window (coordinator at round start, decider at
// extensions) strictly before any release word is posted. The packing
// is load-bearing: an arriver learns "am I last?" from the single Add
// return value, so it can never compare its arrival against the next
// window's membership (with separate counters, a shard whose Add lost
// the race to the decider could re-read a reset counter and elect
// itself a second decider).
type wbarrier struct {
	count atomic.Uint64
	words []pword
	actv  []int // publishWindow scratch: active shards of the window
}

// arrive joins the current window's barrier and reports whether the
// caller was the last arriver (and must run windowDecide).
func (b *wbarrier) arrive() bool {
	w := b.count.Add(1)
	return uint32(w) == uint32(w>>32)
}

func newBarrier(parties int) *wbarrier {
	b := &wbarrier{words: make([]pword, parties), actv: make([]int, 0, parties)}
	for i := range b.words {
		b.words[i].cond = sync.NewCond(&b.words[i].mu)
	}
	return b
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
	n.engines = make([]*sim.Engine, plan.K)
	n.ctxs = make([]shardCtx, plan.K)
	for i := range n.engines {
		n.engines[i] = sim.NewEngine(n.eng.Seed())
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

// nextEventAt returns the earliest pending event time across the
// global engine and every shard engine.
func (n *Network) nextEventAt() (sim.Time, bool) {
	min, ok := n.eng.NextAt()
	for _, e := range n.engines {
		if t, o := e.NextAt(); o && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// pendingHandoffs reports whether any shard parked a cross-shard
// handoff that has not been exchanged yet. Callers run either at a
// barrier decision or after a round — the outboxes are quiescent.
func (n *Network) pendingHandoffs() bool {
	for i := range n.ctxs {
		for _, box := range n.ctxs[i].out {
			if len(box) > 0 {
				return true
			}
		}
	}
	return false
}

// windowDecide is the barrier decision, run by shard me as the last
// arriver at a window boundary. Every other active shard is waiting on
// its release word and every dormant shard has been parked since an
// earlier boundary, so all heaps and outboxes are quiescent — the
// decider is the only thread touching simulation state, whichever
// shard it happens to be. That lets it run the exchange in place:
// every event in the window executed at t >= the window's base, so a
// handoff's arrival (t plus a cut-link delay >= L) lies at or beyond
// the boundary just reached, and draining outboxes here delivers it
// before any shard can pass it — without tearing the round down and
// bouncing through the coordinator. The round stops only when nothing
// can run before the round limit (the next global-engine event, which
// must execute single-threaded). Otherwise it extends: every pending
// event lies at or beyond minNext, so no cross-shard arrival can land
// before minNext + L, and the next window runs through
// min(minNext + L, limit) — only on the shards that hold events inside
// it. Fused exchange and extension preserve byte identity: handoffs
// enter the destination heaps in the same deterministically sorted
// order, before anything later schedules at the same instant, and
// every event still fires in the window the serial schedule implies.
func (n *Network) windowDecide(me int) (sim.Time, int) {
	end := n.roundEnd
	if n.pendingHandoffs() {
		n.exchange()
	}
	var minNext sim.Time
	ok := false
	for _, e := range n.engines {
		if t, o := e.NextAt(); o && (!ok || t < minNext) {
			minNext, ok = t, true
		}
	}
	if stop := !ok || minNext >= n.roundLimit; stop {
		if me == 0 {
			return end, actOver
		}
		n.wb.words[0].post(end, true)
		return 0, actPark
	}
	next := n.roundLimit
	if L := n.plan.Lookahead; L > 0 && minNext+L < next {
		next = minNext + L
	}
	n.roundEnd = next
	meRuns := n.publishWindow(next, me)
	if meRuns {
		return next, actRun
	}
	return 0, actPark
}

// publishWindow resets the arrival counter for the shards holding
// events before end and posts their release words, skipping shard me
// (the caller, who acts on the returned flag instead). Every heap is
// scanned before the counter store and the store precedes every word
// post; the ordering is load-bearing twice over. The counter store is
// the release edge covering the scans: every future heap write sits
// behind an arrival (an acquire on the counter), so even a caller that
// parks right after publishing has its reads ordered before them. And
// arrivals at the new boundary always compare against the new
// membership — a shard released by an early post must not reach the
// barrier while the counter still describes the previous window.
func (n *Network) publishWindow(end sim.Time, me int) (meRuns bool) {
	n.wb.actv = n.wb.actv[:0]
	for j, e := range n.engines {
		if t, ok := e.NextAt(); ok && t < end {
			if j == me {
				meRuns = true
			} else {
				n.wb.actv = append(n.wb.actv, j)
			}
		}
	}
	cnt := uint64(len(n.wb.actv))
	if meRuns {
		cnt++
	}
	n.wb.count.Store(cnt << 32)
	for _, j := range n.wb.actv {
		n.wb.words[j].post(end, false)
	}
	return meRuns
}

// shardWindows runs shard i's heap through consecutive windows: execute
// strictly below end, arrive at the barrier, and — as last arriver —
// decide the next window. It returns the decision that ended this
// shard's participation: actRun never escapes, actPark means wait on
// the release word, actOver (shard 0 only) means the round is over,
// with the stop boundary in the returned time. Wall-clock time spent
// executing events is charged to the shard's busy counter for load
// observability.
func (n *Network) shardWindows(i int, end sim.Time) (sim.Time, int) {
	eng := n.engines[i]
	c := &n.ctxs[i]
	for {
		t0 := time.Now()
		eng.RunBefore(end)
		c.busyNanos += time.Since(t0).Nanoseconds()
		if !n.wb.arrive() {
			return 0, actPark
		}
		var act int
		end, act = n.windowDecide(i)
		if act != actRun {
			return end, act
		}
	}
}

// coordRound drives shard 0 through one round and returns the boundary
// the round stopped at: run windows while active, park on the release
// word while dormant, resume when a decider re-activates shard 0 or
// posts the stop.
func (n *Network) coordRound(active bool, end sim.Time, sense *uint32) sim.Time {
	for {
		if active {
			var act int
			end, act = n.shardWindows(0, end)
			if act == actOver {
				return end
			}
		}
		w := n.wb.words[0].wait(sense)
		end = sim.Time(w >> 2)
		if w&stateStop != 0 {
			return end
		}
		active = true
	}
}

// runSharded is the conservative-PDES round loop. Worker goroutines for
// shards 1..K-1 are spawned once and park on their release words
// whenever they are not executing a window; shard 0 runs inline here.
// Each round:
//
//  1. all clocks are aligned to the round time T and the global engine
//     runs its events at T (scenario callbacks, membership, World.At)
//     single-threaded — these may mutate the graph, touch shared
//     protocol state, and send packets (pushed directly into shard
//     heaps, since every worker is parked);
//  2. the router applies any pending epoch invalidation so route
//     caches are stable during the round, and the link records are
//     refreshed if the link generation moved (graph mutations happen
//     only in this phase, so neither can change mid-round). The
//     lookahead L is the plan's: no mutation changes a link's delay,
//     and a down cut link only makes L shorter than it need be;
//  3. if every pending event lies beyond T, the loop fast-forwards to
//     the earliest one (or stops, when none remain at or before
//     until);
//  4. the round limit is fixed — the next global event (which must run
//     single-threaded at its exact time) or until + 1 (so the final
//     window includes events at until) — the first window
//     [T, min(T+L, limit)) is published to the shards with events in
//     it, and the shards run windows until the barrier decides the
//     round is over (see windowDecide);
//  5. back on this goroutine with the workers parked, handoffs parked
//     during the round's final window are drained in deterministically
//     sorted order into the destination heaps (mid-round boundaries
//     were already drained by barrier deciders), before the next
//     global phase so handoffs precede (are pushed before) anything
//     the next round schedules at the same instant, exactly as they
//     would serially.
func (n *Network) runSharded(until sim.Time) {
	K := n.plan.K
	n.wb = newBarrier(K)
	var done sync.WaitGroup
	done.Add(K - 1)
	for i := 1; i < K; i++ {
		go func(i int) {
			defer done.Done()
			var sense uint32
			for {
				w := n.wb.words[i].wait(&sense)
				if w&stateStop != 0 {
					return
				}
				n.shardWindows(i, sim.Time(w>>2))
			}
		}(i)
	}
	defer func() {
		for i := 1; i < K; i++ {
			n.wb.words[i].post(0, true)
		}
		done.Wait()
	}()

	var sense0 uint32
	L := n.plan.Lookahead
	T := n.eng.Now()
	for {
		for _, e := range n.engines {
			e.AdvanceTo(T)
		}
		n.eng.Run(T)
		n.rt.Sync()
		if n.g.LinkGen() != n.linkGen {
			n.syncLinks()
		}
		next, ok := n.nextEventAt()
		if !ok || next > until {
			break
		}
		if next > T {
			T = next
			continue
		}
		// The global engine has run through T, so its next event — and
		// the round limit — lie strictly beyond T, and the shard holding
		// the event at T is active in the first window: the round always
		// has at least one participant.
		limit := until + 1
		if gn, ok := n.eng.NextAt(); ok && gn < limit {
			limit = gn
		}
		end := limit
		if L > 0 && T+L < end {
			end = T + L
		}
		n.roundLimit = limit
		n.roundEnd = end
		n.parallel = true
		act0 := n.publishWindow(end, 0)
		stop := n.coordRound(act0, end, &sense0)
		n.parallel = false
		if n.pendingHandoffs() {
			n.exchange()
		}
		adv := stop
		if adv > until {
			adv = until
		}
		for _, e := range n.engines {
			e.AdvanceTo(adv)
		}
		if stop > until {
			break
		}
		T = stop
	}
	n.eng.Run(until)
	for _, e := range n.engines {
		e.AdvanceTo(until)
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
// after Run returns: it must not race a running round. Counters are
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
		st.Events = n.engines[i].Fired()
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
// destination shard's arena on the way (see adopt).
func (n *Network) exchange() {
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
		eng := n.engines[dst]
		for _, e := range n.xq {
			eng.ScheduleArg(e.h.at, n.hopFn, n.adopt(e.h.f, e.src, dst))
		}
	}
	n.xq = n.xq[:0]
}
