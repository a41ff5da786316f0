package netem

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// deliveryLog records per-node delivery observations. Each node's slice
// is appended to only by the shard that owns the node, so a sharded run
// can log concurrently without synchronization; flatten() merges the
// per-node logs into one canonical transcript for comparison.
type deliveryLog struct{ byNode [][]string }

func newDeliveryLog(nodes int) *deliveryLog {
	return &deliveryLog{byNode: make([][]string, nodes)}
}

func (dl *deliveryLog) attach(net *Network, node int) {
	net.Register(node, func(p Packet) {
		dl.byNode[node] = append(dl.byNode[node],
			fmt.Sprintf("%d<-%d seq=%d size=%d at=%d", node, p.From, p.Seq, p.Size, net.ctxs[net.shardIdx(node)].eng.Now()))
	})
}

func (dl *deliveryLog) flatten() string {
	var all []string
	for _, l := range dl.byNode {
		all = append(all, l...)
	}
	sort.Strings(all)
	out := ""
	for _, s := range all {
		out += s + "\n"
	}
	return out
}

// trafficNet builds runTraffic's topology: eight stub domains, so a
// partition can reach eight shards.
func trafficNet(t *testing.T) (*sim.Engine, *Network, *topology.Graph) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 1, TransitPerDomain: 2,
		StubDomains: 8, StubDomainSize: 3,
		Clients: 12, Bandwidth: topology.MediumBandwidth,
		Loss: topology.PaperLoss, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(77)
	return eng, New(eng, g, topology.NewRouter(g), Config{}), g
}

// runTraffic drives a deterministic mesh of lossy, bursty traffic
// among all clients of trafficNet, and returns the delivery
// transcript plus the final counters. The run stops at each of ends in
// turn before it runs to 5 s, and every Run must leave no shard worker
// behind.
func runTraffic(t *testing.T, shards int, ends ...sim.Time) (string, Stats) {
	t.Helper()
	eng, net, g := trafficNet(t)
	if shards > 1 {
		if got := net.EnableShards(shards); got != shards {
			t.Fatalf("EnableShards(%d) = %d", shards, got)
		}
	}
	dl := newDeliveryLog(len(g.Nodes))
	for _, c := range g.Clients {
		dl.attach(net, c)
	}
	sendTraffic(eng, net, g)
	for _, end := range append(ends, 5*sim.Second) {
		before := runtime.NumGoroutine()
		net.Run(end)
		workersExited(t, before)
	}
	return dl.flatten(), net.Stats()
}

// sendSpacing is sendTraffic's schedule: client i's j-th burst leaves
// at 10 + 17i + 23j ms.
func sendSpacing(i, j int) sim.Time { return sim.Time(10+i*17+j*23) * sim.Millisecond }

// sendTraffic schedules runTraffic's mesh: 40 bursts from every client.
func sendTraffic(eng *sim.Engine, net *Network, g *topology.Graph) {
	seq := uint64(0)
	for i, src := range g.Clients {
		src := src
		for j := 0; j < 40; j++ {
			dst := g.Clients[(i+j+1)%len(g.Clients)]
			size := 200 + (i*37+j*101)%1400
			s := seq
			seq++
			// Burst several packets per instant so queues build and the
			// RED/loss draws actually fire.
			eng.At(sendSpacing(i, j), func() {
				net.Send(Packet{Kind: Data, Seq: s, Size: size, From: src, To: dst})
				net.Send(Packet{Kind: Data, Seq: s, Size: size, From: src, To: dst, Trace: true})
			})
		}
	}
}

// cutArrivals runs runTraffic's traffic serially and returns the
// instants at which a packet arrives over a link that the k-shard
// partition cuts: the arrival times of the k-shard run's handoffs.
func cutArrivals(t *testing.T, k int) []sim.Time {
	t.Helper()
	eng, net, g := trafficNet(t)
	plan := topology.PartitionShards(g, k)
	var at []sim.Time
	hop := net.hopFn
	net.hopFn = func(a any) {
		if f := a.(*inflight); f.i > 0 {
			l := g.Links[f.path[f.i-1]]
			if plan.ShardOf[l.A] != plan.ShardOf[l.B] {
				at = append(at, eng.Now())
			}
		}
		hop(a)
	}
	sendTraffic(eng, net, g)
	net.Run(5 * sim.Second)
	return at
}

// workersExited polls for up to a second for the goroutine count to
// fall back to before: a sharded Run's workers exit on its stop post.
func workersExited(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedTrafficMatchesSerial is the emulator-level determinism
// guarantee: for a fixed seed, the full delivery transcript — sources,
// sequences, sizes, and arrival instants at every node — and the
// aggregate counters are identical whether the run is serial or
// partitioned into any number of shards, and whether the sharded run
// is one Run or several. The segmented runs stop exactly on a send
// instant (a global-engine event) and exactly on a handoff's arrival.
func TestShardedTrafficMatchesSerial(t *testing.T) {
	serialLog, serialStats := runTraffic(t, 1)
	if serialLog == "" {
		t.Fatal("serial run delivered nothing")
	}
	for _, k := range []int{2, 4, 8} {
		arr := cutArrivals(t, k)
		if len(arr) == 0 {
			t.Fatalf("shards=%d: no packet crossed the cut", k)
		}
		ends := []sim.Time{sendSpacing(0, 0), arr[len(arr)/3], sendSpacing(3, 20), arr[2*len(arr)/3]}
		slices.Sort(ends)
		for _, segs := range [][]sim.Time{nil, ends} {
			log, stats := runTraffic(t, k, segs...)
			if log != serialLog {
				t.Errorf("shards=%d ends=%v: delivery transcript differs from serial", k, segs)
			}
			if stats != serialStats {
				t.Errorf("shards=%d ends=%v: stats %+v, serial %+v", k, segs, stats, serialStats)
			}
		}
	}
}

// TestMailbox pins the three properties the sharded runner's
// handshake stands on: a wait returns only a value past the one its
// reader last saw, a post wakes a reader that has given up spinning and
// parked, and a post that does not grow panics instead of leaving its
// reader waiting for good.
func TestMailbox(t *testing.T) {
	t.Run("wait returns only a greater value", func(t *testing.T) {
		m := newMailbox(5)
		m.post(7)
		for _, old := range []sim.Time{4, 5, 6} {
			if got := m.wait(old); got != 7 {
				t.Fatalf("wait(%d) = %d, want 7", old, got)
			}
		}
		got := make(chan sim.Time)
		go func() { got <- m.wait(7) }()
		m.post(9)
		if v := receiveWithin(t, got); v != 9 {
			t.Fatalf("wait(7) = %d after post(9)", v)
		}
	})
	t.Run("post wakes a parked reader", func(t *testing.T) {
		m := newMailbox(0)
		got := make(chan sim.Time)
		parked := parkedMailboxReaders()
		go func() { got <- m.wait(0) }()
		// The reader parks on the condition variable once its spin and
		// yield phases are over; only post can get it out of there.
		deadline := time.Now().Add(10 * time.Second)
		for parkedMailboxReaders() == parked {
			if time.Now().After(deadline) {
				t.Fatal("the reader never parked")
			}
			time.Sleep(time.Millisecond)
		}
		m.post(3)
		if v := receiveWithin(t, got); v != 3 {
			t.Fatalf("parked wait(0) = %d, want 3", v)
		}
	})
	t.Run("a post that does not grow panics", func(t *testing.T) {
		m := newMailbox(5)
		m.post(8)
		for _, v := range []sim.Time{8, 6} {
			got := func() (msg any) {
				defer func() { msg = recover() }()
				m.post(v)
				return nil
			}()
			if want := fmt.Sprintf("netem: mailbox post %d after 8: posts must grow", v); got != want {
				t.Fatalf("post(%d): panic %v, want %q", v, got, want)
			}
		}
		if got := m.wait(5); got != 8 {
			t.Fatalf("box holds %d after refused posts, want 8", got)
		}
	})
}

// receiveWithin returns the value a waiting reader sends on got,
// failing the test if a post has not woken it within 10 s.
func receiveWithin(t *testing.T, got <-chan sim.Time) sim.Time {
	t.Helper()
	select {
	case v := <-got:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("post left the reader waiting")
		return 0
	}
}

// parkedMailboxReaders counts the goroutines parked inside
// mailbox.wait, on its condition variable.
func parkedMailboxReaders() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "netem.(*mailbox).wait") {
			n++
		}
	}
	return n
}

// TestOneShardIsSerial: asking for zero or one shard builds no plan,
// so the network stays the serial one — every node on the global
// engine and no per-shard load to report.
func TestOneShardIsSerial(t *testing.T) {
	for _, k := range []int{0, 1} {
		_, net, g := testNet(t, 77, topology.PaperLoss)
		if got := net.EnableShards(k); got != 1 {
			t.Fatalf("EnableShards(%d) = %d, want 1", k, got)
		}
		if got := net.Shards(); got != 1 {
			t.Errorf("EnableShards(%d): Shards() = %d, want 1", k, got)
		}
		if load := net.RunLoad(); load.Shards != nil {
			t.Errorf("EnableShards(%d): RunLoad().Shards = %v, want nil", k, load.Shards)
		}
		for n := range g.Nodes {
			if net.SchedulerFor(n) != net.Engine() {
				t.Fatalf("EnableShards(%d): node %d runs off the global engine", k, n)
			}
		}
	}
}

// barrierTopo is a handcrafted six-node line: client c0 on stub s0,
// a two-hop transit backbone, and client c1 on stub s1. Every
// bandwidth is made enormous so serialization delay rounds to zero and
// hop arithmetic is exactly the sum of link delays.
//
//	c0 --7ms-- s0 --5ms-- t0 --2ms-- t1 --3ms-- s1 --1ms-- c1
//
// The shard atoms are {c0,s0}, {t0}, {t1}, {s1,c1}; PartitionShards
// merges across the two cheapest inter-atom links (2ms, then 3ms),
// leaving exactly the 5ms s0—t0 link on the cut: shard 0 = {c0, s0},
// shard 1 = {t0, t1, s1, c1}, lookahead 5ms.
func barrierTopo(t *testing.T) (*topology.Graph, int, int, int) {
	t.Helper()
	b := topology.NewBuilder()
	const huge = 1e12 // Kbps; serialization of any packet rounds to 0ns
	ms := func(d int) sim.Duration { return sim.Duration(d) * sim.Millisecond }
	t0 := b.AddNode(topology.Transit, 0, 0)
	t1 := b.AddNode(topology.Transit, 1, 0)
	s0 := b.AddNode(topology.Stub, 0, 1)
	s1 := b.AddNode(topology.Stub, 1, 1)
	c0 := b.AddNode(topology.Client, 0, 2)
	c1 := b.AddNode(topology.Client, 1, 2)
	b.AddLink(c0, s0, topology.ClientStub, huge, ms(7), 0)
	cut := b.AddLink(s0, t0, topology.TransitStub, huge, ms(5), 0)
	b.AddLink(t0, t1, topology.TransitTransit, huge, ms(2), 0)
	b.AddLink(t1, s1, topology.TransitStub, huge, ms(3), 0)
	b.AddLink(c1, s1, topology.ClientStub, huge, ms(1), 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = cut
	return g, c0, c1, t0
}

// TestHandoffExactlyOnBarrierBoundary pins the conservative-sync edge
// case: a cross-shard packet whose arrival lands exactly ON a window
// boundary. With the line topology above and a send at t=10ms:
//
//	the hop at c0 runs at 10ms, opening the window [10ms, 15ms)
//	the hop at s0 runs at 17ms — outside, so it opens [17ms, 22ms)
//	that hop crosses the cut: arrival = 17ms + 5ms = 22ms,
//	exactly its own window's end
//
// The window is half-open (workers run strictly before the barrier), so
// the handoff must be exchanged and executed at the start of the next
// window, never inside the one that produced it — and the delivery time
// at c1 (22ms + 2ms + 3ms + 1ms = 28ms) must match the serial run
// exactly. The second case adds a global-engine event at that same
// 22ms, sending from c1 back to c0: the window then ends at the global
// event as well as at the lookahead bound, and the reply must reach c0
// (22ms + 1ms + 3ms + 2ms + 5ms + 7ms = 40ms) when the serial run says.
func TestHandoffExactlyOnBarrierBoundary(t *testing.T) {
	run := func(shards int, reply bool) (atC1, atC0 sim.Time) {
		g, c0, c1, _ := barrierTopo(t)
		eng := sim.NewEngine(5)
		net := New(eng, g, topology.NewRouter(g), Config{})
		if shards > 1 {
			if got := net.EnableShards(2); got != 2 {
				t.Fatalf("EnableShards(2) = %d", got)
			}
			plan := topology.PartitionShards(g, 2)
			if plan.Lookahead != 5*sim.Millisecond {
				t.Fatalf("lookahead = %v, want 5ms", plan.Lookahead)
			}
			if net.ShardOf(c0) == net.ShardOf(c1) {
				t.Fatal("c0 and c1 landed on the same shard")
			}
		}
		net.Register(c1, func(p Packet) { atC1 = net.ctxs[net.shardIdx(c1)].eng.Now() })
		net.Register(c0, func(p Packet) { atC0 = net.ctxs[net.shardIdx(c0)].eng.Now() })
		eng.At(10*sim.Millisecond, func() {
			net.Send(Packet{Kind: Data, Seq: 1, Size: 1000, From: c0, To: c1})
		})
		if reply {
			eng.At(22*sim.Millisecond, func() {
				net.Send(Packet{Kind: Data, Seq: 2, Size: 1000, From: c1, To: c0})
			})
		}
		net.Run(sim.Second)
		if atC1 == 0 || reply && atC0 == 0 {
			t.Fatalf("shards=%d reply=%v: packet not delivered", shards, reply)
		}
		return atC1, atC0
	}
	for _, reply := range []bool{false, true} {
		serialC1, serialC0 := run(1, reply)
		if want := 28 * sim.Millisecond; serialC1 != want {
			t.Fatalf("reply=%v: serial delivery at c1 at %v, want %v", reply, serialC1, want)
		}
		if want := 40 * sim.Millisecond; reply && serialC0 != want {
			t.Fatalf("serial delivery at c0 at %v, want %v", serialC0, want)
		}
		if c1, c0 := run(2, reply); c1 != serialC1 || c0 != serialC0 {
			t.Fatalf("reply=%v: sharded delivery at c1 %v, c0 %v; serial at %v, %v", reply, c1, c0, serialC1, serialC0)
		}
	}
}

// TestOneWayHandoffsAllocateNothingPerPacket streams Data one way
// across the cut of the line topology: c0 on shard 0 sends, c1 on
// shard 1 receives, and nothing flows back. Each handed-off packet's
// forwarding state is copied into one from the destination shard's
// arena at the exchange, and the original goes back to its source
// shard's, so the sender's arena serves every step from its free list.
// Were a handoff to retire into the receiver's arena instead, the
// sender would back a new chunk for every 256 packets of every step
// while the receiver's free list grew to match — a step of 2,048
// handoffs would allocate more than a step of 256. Each step advances
// the clocks by a whole number of calendar rings, so the engines reuse
// the same warm buckets.
func TestOneWayHandoffsAllocateNothingPerPacket(t *testing.T) {
	g, c0, c1, _ := barrierTopo(t)
	eng := sim.NewEngine(5)
	net := New(eng, g, topology.NewRouter(g), Config{})
	if got := net.EnableShards(2); got != 2 {
		t.Fatalf("EnableShards(2) = %d", got)
	}
	if net.ShardOf(c0) == net.ShardOf(c1) {
		t.Fatal("c0 and c1 landed on the same shard")
	}
	delivered := 0
	net.Register(c1, func(Packet) { delivered++ })
	const ringSpan = 8 << 27 // eight calendar rings of the sim engine
	end := sim.Time(0)
	burst := 0
	send := func() {
		for i := 0; i < burst; i++ {
			net.Send(Packet{Kind: Data, Seq: uint64(i), Size: 1000, From: c0, To: c1})
		}
	}
	step := func(n int) func() {
		return func() {
			burst = n
			eng.At(end+10*sim.Millisecond, send)
			end += ringSpan
			net.Run(end)
		}
	}
	small, large := step(256), step(2048)
	for i := 0; i < 4; i++ {
		large()
		small()
	}
	warm := delivered
	allocsSmall := testing.AllocsPerRun(10, small)
	allocsLarge := testing.AllocsPerRun(10, large)
	if got, want := delivered-warm, 11*(256+2048); got != want { // AllocsPerRun adds a run of its own
		t.Fatalf("delivered %d packets after warm-up, want %d", got, want)
	}
	t.Logf("allocations per step: %v with 256 handoffs, %v with 2048", allocsSmall, allocsLarge)
	if allocsLarge > allocsSmall {
		t.Fatalf("a step of 2048 one-way handoffs allocates %v times, one of 256 %v: the sender's arena grows with the traffic", allocsLarge, allocsSmall)
	}
}
