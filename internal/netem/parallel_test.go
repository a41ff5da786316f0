package netem

import (
	"fmt"
	"sort"
	"testing"

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
			fmt.Sprintf("%d<-%d seq=%d size=%d at=%d", node, p.From, p.Seq, p.Size, net.engineFor(net.shardIdx(node)).Now()))
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

// runTraffic builds the standard test topology (two stub domains, so
// there are at least two shard atoms), drives a deterministic mesh of
// lossy, bursty traffic among all clients, and returns the delivery
// transcript plus the final counters.
func runTraffic(t *testing.T, shards int) (string, Stats) {
	t.Helper()
	eng, net, g := testNet(t, 77, topology.PaperLoss)
	if shards > 1 {
		if got := net.EnableShards(shards); got < 2 {
			t.Fatalf("EnableShards(%d) = %d, want >= 2", shards, got)
		}
	}
	dl := newDeliveryLog(len(g.Nodes))
	for _, c := range g.Clients {
		dl.attach(net, c)
	}
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
			eng.At(sim.Time(10+i*17+j*23)*sim.Millisecond, func() {
				net.Send(Packet{Kind: Data, Seq: s, Size: size, From: src, To: dst})
				net.Send(Packet{Kind: Data, Seq: s, Size: size, From: src, To: dst, Trace: true})
			})
		}
	}
	net.Run(5 * sim.Second)
	return dl.flatten(), net.Stats()
}

// TestShardedTrafficMatchesSerial is the emulator-level determinism
// guarantee: for a fixed seed, the full delivery transcript — sources,
// sequences, sizes, and arrival instants at every node — and the
// aggregate counters are identical whether the run is serial or
// partitioned into any number of shards.
func TestShardedTrafficMatchesSerial(t *testing.T) {
	serialLog, serialStats := runTraffic(t, 1)
	if serialLog == "" {
		t.Fatal("serial run delivered nothing")
	}
	for _, k := range []int{2, 4} {
		log, stats := runTraffic(t, k)
		if log != serialLog {
			t.Errorf("shards=%d: delivery transcript differs from serial", k)
		}
		if stats != serialStats {
			t.Errorf("shards=%d: stats %+v, serial %+v", k, stats, serialStats)
		}
	}
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
// exactly.
func TestHandoffExactlyOnBarrierBoundary(t *testing.T) {
	run := func(shards int) sim.Time {
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
		var deliveredAt sim.Time
		net.Register(c1, func(p Packet) { deliveredAt = net.engineFor(net.shardIdx(c1)).Now() })
		eng.At(10*sim.Millisecond, func() {
			net.Send(Packet{Kind: Data, Seq: 1, Size: 1000, From: c0, To: c1})
		})
		net.Run(sim.Second)
		if deliveredAt == 0 {
			t.Fatalf("shards=%d: packet not delivered", shards)
		}
		return deliveredAt
	}
	serial := run(1)
	if want := 28 * sim.Millisecond; serial != want {
		t.Fatalf("serial delivery at %v, want %v", serial, want)
	}
	if sharded := run(2); sharded != serial {
		t.Fatalf("sharded delivery at %v, serial at %v", sharded, serial)
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
