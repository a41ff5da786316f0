package netem

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// refNet is the reference emulator FuzzNetemMatchesReference holds
// Network to: the forwarding model of the package doc written the
// naive way. It reads link state live from the Graph on every
// traversal, keeps one busyUntil and one draw counter per link
// direction, resolves every route with its own Dijkstra (no cache, no
// router), re-resolves a packet's remaining path whenever the route
// epoch has moved since it was resolved, and runs its own event queue
// ordered by (time, push order) — the engine's FIFO contract. Only the
// draw formula is shared in spirit: each draw is the same sim.Mix64
// function of (seed, direction, draw index), written out again here.
type refNet struct {
	g        *topology.Graph
	now      sim.Time
	q        refQueue
	pushed   uint64
	busy     []sim.Time // 2*link + direction
	draws    []uint64   // 2*link + direction
	lossSeed uint64
	stats    Stats
	arrived  map[uint64]sim.Time // Seq -> delivery time
}

// refPkt is one packet in flight in the reference.
type refPkt struct {
	pkt   Packet
	cur   int
	path  []int // links still to traverse
	epoch uint64
}

type refEvent struct {
	at  sim.Time
	seq uint64
	fn  func()
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func newRefNet(g *topology.Graph, seed int64) *refNet {
	return &refNet{
		g:        g,
		busy:     make([]sim.Time, 2*len(g.Links)),
		draws:    make([]uint64, 2*len(g.Links)),
		lossSeed: sim.Mix64(uint64(seed) ^ 0x6e65746d),
		arrived:  map[uint64]sim.Time{},
	}
}

func (r *refNet) at(t sim.Time, fn func()) {
	heap.Push(&r.q, refEvent{at: t, seq: r.pushed, fn: fn})
	r.pushed++
}

func (r *refNet) run(until sim.Time) {
	for len(r.q) > 0 && r.q[0].at <= until {
		e := heap.Pop(&r.q).(refEvent)
		r.now = e.at
		e.fn()
	}
}

// draw is direction d's next uniform [0,1) number.
func (r *refNet) draw(d int) float64 {
	r.draws[d]++
	z := sim.Mix64(r.lossSeed + uint64(d)*0x9E3779B97F4A7C15 + r.draws[d]*0xBF58476D1CE4E5B9)
	return float64(z>>11) / (1 << 53)
}

// route is a shortest-delay path from -> to over the links up now:
// an O(n²) Dijkstra, false when to is unreachable.
func (r *refNet) route(from, to int) ([]int, bool) {
	n := len(r.g.Nodes)
	dist := make([]int64, n)
	via := make([]int, n) // incoming link on the best path
	done := make([]bool, n)
	for i := range dist {
		dist[i], via[i] = -1, -1
	}
	dist[from] = 0
	for {
		u := -1
		for v := range dist {
			if !done[v] && dist[v] >= 0 && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for i := range r.g.Links {
			l := &r.g.Links[i]
			if l.Down || (l.A != u && l.B != u) {
				continue
			}
			v := l.A
			if v == u {
				v = l.B
			}
			if d := dist[u] + int64(l.Delay); dist[v] < 0 || d < dist[v] {
				dist[v], via[v] = d, i
			}
		}
	}
	if dist[to] < 0 {
		return nil, false
	}
	path := []int{}
	for v := to; v != from; {
		l := &r.g.Links[via[v]]
		path = append([]int{l.ID}, path...)
		if l.A == v {
			v = l.B
		} else {
			v = l.A
		}
	}
	return path, true
}

func (r *refNet) send(pkt Packet) {
	if pkt.Kind == Control {
		r.stats.ControlBytes += uint64(pkt.Size)
	} else {
		r.stats.DataBytesSent += uint64(pkt.Size)
	}
	path, ok := r.route(pkt.From, pkt.To)
	if !ok {
		return
	}
	r.hop(&refPkt{pkt: pkt, cur: pkt.From, path: path, epoch: r.g.Epoch()})
}

func (r *refNet) hop(p *refPkt) {
	if e := r.g.Epoch(); p.epoch != e {
		p.epoch = e
		r.stats.ReroutedPackets++
		path, ok := r.route(p.cur, p.pkt.To)
		if !ok {
			r.stats.LinkDownDrops++
			return
		}
		p.path = path
	}
	if len(p.path) == 0 {
		if p.pkt.Kind == Data {
			r.stats.DataBytesDelivered += uint64(p.pkt.Size)
		}
		r.stats.DeliveredPackets++
		r.arrived[p.pkt.Seq] = r.now
		return
	}
	l := &r.g.Links[p.path[0]]
	if l.Down {
		r.stats.LinkDownDrops++
		return
	}
	d, next := 2*l.ID, l.B
	if p.cur == l.B {
		d, next = d+1, l.A
	}
	start := max(r.now, r.busy[d])
	if p.pkt.Kind == Data {
		const limit = 150 * sim.Millisecond
		if wait := start - r.now; wait > limit/2 {
			pr := float64(wait-limit/2) / float64(limit/2)
			if pr >= 1 || r.draw(d) < pr {
				r.stats.CongestionDrops++
				return
			}
		}
		if l.Loss > 0 && r.draw(d) < l.Loss {
			r.stats.RandomLossDrops++
			return
		}
	}
	r.busy[d] = start + sim.Duration(float64(p.pkt.Size)/l.Bytes*float64(sim.Second))
	p.cur, p.path = next, p.path[1:]
	r.at(r.busy[d]+l.Delay, func() { r.hop(p) })
}

// refScript is one fuzz input decoded: a Builder graph of at most 12
// nodes and a timed list of sends and link mutations.
type refScript struct {
	seed  int64
	build func() *topology.Graph
	ops   []refOp
	end   sim.Time
}

type refOp struct {
	at    sim.Time
	apply func(g *topology.Graph, send func(Packet))
}

// refGraph builds a transit-stub graph of 1-3 transit nodes, 2-5 stub
// nodes and 2-4 clients from seed, with a few extra router links so
// that failures leave detours. Link i's delay is a whole number of
// milliseconds plus 2^i ns, so no two distinct paths tie: two sums of
// distinct powers of two below 2^19 ns < 1 ms differ, and the
// milliseconds cannot make up the difference. The reference and the
// router may then break no tie differently.
func refGraph(seed int64) *topology.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := topology.NewBuilder()
	var transit, stubs []int
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		transit = append(transit, b.AddNode(topology.Transit, float64(i), 0))
	}
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		stubs = append(stubs, b.AddNode(topology.Stub, float64(i), 1))
	}
	kind := map[int]topology.NodeKind{}
	for _, t := range transit {
		kind[t] = topology.Transit
	}
	for _, s := range stubs {
		kind[s] = topology.Stub
	}
	links := 0
	seen := map[[2]int]bool{}
	add := func(a, c int) {
		if a == c || seen[[2]int{a, c}] || seen[[2]int{c, a}] {
			return
		}
		seen[[2]int{a, c}] = true
		class := topology.ClientStub
		switch {
		case kind[a] == topology.Transit && kind[c] == topology.Transit:
			class = topology.TransitTransit
		case kind[a] == topology.Stub && kind[c] == topology.Stub:
			class = topology.StubStub
		case kind[a] == topology.Transit || kind[c] == topology.Transit:
			class = topology.TransitStub
		}
		kbps := []float64{100, 400, 1500, 6000}[rng.Intn(4)]
		delay := sim.Duration(1+rng.Intn(8))*sim.Millisecond + sim.Duration(1)<<links
		loss := 0.0
		if rng.Intn(4) == 0 {
			loss = 0.05
		}
		b.AddLink(a, c, class, kbps, delay, loss)
		links++
	}
	for i := 1; i < len(transit); i++ {
		add(transit[i], transit[rng.Intn(i)])
	}
	for i, s := range stubs {
		if i == 0 || rng.Intn(2) == 0 {
			add(s, transit[rng.Intn(len(transit))])
		} else {
			add(s, stubs[rng.Intn(i)])
		}
	}
	routers := append(append([]int{}, transit...), stubs...)
	for i, n := 0, rng.Intn(4); i < n; i++ {
		add(routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))])
	}
	for i, n := 0, 2+rng.Intn(3); i < n; i++ {
		c := b.AddNode(topology.Client, float64(i), 2)
		kind[c] = topology.Client
		add(c, stubs[rng.Intn(len(stubs))])
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // the generator above keeps the contract by construction
	}
	return g
}

// decodeRefScript reads script four bytes at a time as (op, a, b, gap):
// gap advances the clock in quarter milliseconds, and op picks a burst
// of sends or one of the per-link and partition mutators, with a and b
// as operands. At most 64 steps are read.
func decodeRefScript(seed int64, script []byte) refScript {
	g := refGraph(seed) // shape only: each run builds its own copy
	nl, clients, nodes := len(g.Links), g.Clients, len(g.Nodes)
	s := refScript{seed: seed, build: func() *topology.Graph { return refGraph(seed) }}
	at := sim.Time(sim.Millisecond)
	seq := uint64(0)
	for step := 0; len(script) >= 4 && step < 64; step++ {
		op, a, b, gap := int(script[0]), int(script[1]), int(script[2]), int(script[3])
		script = script[4:]
		at += sim.Duration(gap) * 250 * sim.Microsecond
		var apply func(g *topology.Graph, send func(Packet))
		switch op % 8 {
		case 0, 1, 2:
			from, to := clients[a%len(clients)], clients[b%len(clients)]
			kind := Data
			if op&0x40 != 0 {
				kind = Control
			}
			size := 64 + (a*31+b*97)%1437
			first, n := seq, uint64(1+(op>>3)%8)
			seq += n
			apply = func(_ *topology.Graph, send func(Packet)) {
				for i := first; i < first+n; i++ {
					send(Packet{Kind: kind, Seq: i, Size: size, From: from, To: to})
				}
			}
		case 3:
			apply = func(g *topology.Graph, _ func(Packet)) { g.FailLink(a % nl) }
		case 4:
			apply = func(g *topology.Graph, _ func(Packet)) { g.RestoreLink(a % nl) }
		case 5:
			if op&0x80 != 0 {
				// Halving stops at 50 Kbps, SetBandwidth's floor below, so
				// serialization times stay far inside sim.Duration.
				apply = func(g *topology.Graph, _ func(Packet)) {
					if kbps := g.Links[a%nl].Kbps() * 0.5 * float64(1+b%4); kbps >= 50 {
						g.SetBandwidth(a%nl, kbps)
					}
				}
			} else {
				apply = func(g *topology.Graph, _ func(Packet)) { g.SetBandwidth(a%nl, float64(50+20*b)) }
			}
		case 6:
			apply = func(g *topology.Graph, _ func(Packet)) { g.SetLoss(a%nl, 0.04*float64(b%8)) }
		case 7:
			if a&1 == 0 {
				apply = func(g *topology.Graph, _ func(Packet)) { g.Heal() }
				break
			}
			var set []int
			for v := 0; v < nodes; v++ {
				if b>>(v%8)&1 != 0 {
					set = append(set, v)
				}
			}
			apply = func(g *topology.Graph, _ func(Packet)) { g.Partition(set) }
		}
		s.ops = append(s.ops, refOp{at: at, apply: apply})
	}
	// Control packets are never queue-dropped, so a long burst over a
	// slowed link drains for minutes: the horizon is far past any.
	s.end = at + 3600*sim.Second
	return s
}

// refOutcome is what a run of a script observes: each packet's delivery
// time by Seq (absent: lost) and the aggregate counters.
type refOutcome struct {
	arrived map[uint64]sim.Time
	stats   Stats
}

func (s refScript) runReference() refOutcome {
	r := newRefNet(s.build(), s.seed)
	for _, op := range s.ops {
		op := op
		r.at(op.at, func() { op.apply(r.g, r.send) })
	}
	r.run(s.end)
	return refOutcome{r.arrived, r.stats}
}

// runNetem runs the script on a Network at the given shard count; ok
// is false when the graph does not split into that many shards.
func (s refScript) runNetem(shards int) (out refOutcome, ok bool) {
	g := s.build()
	eng := sim.NewEngine(s.seed)
	net := New(eng, g, topology.NewRouter(g), Config{})
	if shards > 1 && net.EnableShards(shards) != shards {
		return out, false
	}
	// One log per node: a node's handler runs only on its own shard.
	type arrival struct {
		seq uint64
		at  sim.Time
	}
	logs := make([][]arrival, len(g.Nodes))
	for _, c := range g.Clients {
		c := c
		net.Register(c, func(p Packet) {
			logs[c] = append(logs[c], arrival{p.Seq, net.ctxs[net.shardIdx(c)].eng.Now()})
		})
	}
	for _, op := range s.ops {
		op := op
		eng.At(op.at, func() { op.apply(g, net.Send) })
	}
	net.Run(s.end)
	out.arrived = map[uint64]sim.Time{}
	for _, l := range logs {
		for _, a := range l {
			out.arrived[a.seq] = a.at
		}
	}
	out.stats = net.Stats()
	return out, true
}

// diffOutcome names the first packet whose fate differs, or the
// counters, or returns "" when got equals want.
func diffOutcome(got, want refOutcome) string {
	var seqs []uint64
	for s := range want.arrived {
		seqs = append(seqs, s)
	}
	for s := range got.arrived {
		if _, ok := want.arrived[s]; !ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	fate := func(o refOutcome, s uint64) string {
		if t, ok := o.arrived[s]; ok {
			return fmt.Sprintf("delivered at %d", t)
		}
		return "lost"
	}
	for _, s := range seqs {
		if g, w := fate(got, s), fate(want, s); g != w {
			return fmt.Sprintf("packet %d: %s, reference %s", s, g, w)
		}
	}
	if got.stats != want.stats {
		return fmt.Sprintf("stats %+v, reference %+v", got.stats, want.stats)
	}
	return ""
}

// FuzzNetemMatchesReference holds the emulator to refNet over fuzzed
// (graph seed, script) pairs: every packet's fate — delivered at the
// same instant, or lost — and every Stats counter must agree, serially
// and at two shards. The scripts mix bursts of Data and Control sends
// with FailLink, RestoreLink, SetBandwidth (absolute or scaled), SetLoss,
// Partition and Heal, so packets are in flight across route epoch
// changes and link-state changes that move no epoch.
func FuzzNetemMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{0x38, 0, 1, 0, 0x38, 1, 0, 0})
	// Every link cut to 90 Kbps mid-stream, more traffic both ways,
	// every link scaled back up, and more traffic: no other mutation in
	// between moves the link generation for them.
	cut := []byte{0x18, 0, 1, 0}
	for l := byte(0); l < 19; l++ {
		cut = append(cut, 5, l, 2, 0)
	}
	cut = append(cut, 0x18, 0, 1, 4, 0x18, 1, 0, 0)
	for l := byte(0); l < 19; l++ {
		cut = append(cut, 0x85, l, 3, 0)
	}
	cut = append(cut, 0x18, 0, 1, 40, 0x18, 1, 0, 0)
	f.Add(int64(2), cut)
	// A failure while a burst is in flight, a restore, and a partition
	// and heal between bursts.
	f.Add(int64(3), []byte{0x38, 0, 1, 0, 3, 1, 0, 6, 4, 1, 0, 40, 0x38, 1, 0, 0, 7, 1, 0x0f, 2, 0x38, 0, 1, 1, 7, 0, 0, 60, 0x38, 0, 1, 0})
	// Loss switched on under a Data burst, off again, and a Control
	// burst.
	f.Add(int64(4), []byte{6, 0, 6, 0, 6, 1, 6, 0, 6, 2, 6, 0, 0x38, 0, 1, 0, 0x38, 1, 0, 1, 6, 0, 0, 40, 0x78, 0, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		s := decodeRefScript(seed, script)
		want := s.runReference()
		for _, k := range []int{1, 2} {
			got, ok := s.runNetem(k)
			if !ok {
				continue
			}
			if d := diffOutcome(got, want); d != "" {
				t.Fatalf("shards=%d: %s", k, d)
			}
		}
	})
}
