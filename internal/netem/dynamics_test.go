package netem

import (
	"testing"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// diamond builds S - A - B - D with a slow detour A - C - B, so the
// A-B link can fail while leaving an alternative route.
func diamond(t *testing.T) (*topology.Graph, map[string]int) {
	t.Helper()
	b := topology.NewBuilder()
	s := b.AddNode(topology.Client, 0, 0)
	a := b.AddNode(topology.Stub, 1, 0)
	bb := b.AddNode(topology.Stub, 2, 0)
	c := b.AddNode(topology.Stub, 1.5, 1)
	d := b.AddNode(topology.Client, 3, 0)
	ids := map[string]int{"S": s, "A": a, "B": bb, "C": c, "D": d}
	ids["SA"] = b.AddLink(s, a, topology.ClientStub, 10000, sim.Millisecond, 0)
	ids["AB"] = b.AddLink(a, bb, topology.StubStub, 10000, sim.Millisecond, 0)
	ids["AC"] = b.AddLink(a, c, topology.StubStub, 10000, 5*sim.Millisecond, 0)
	ids["CB"] = b.AddLink(c, bb, topology.StubStub, 10000, 5*sim.Millisecond, 0)
	ids["BD"] = b.AddLink(bb, d, topology.ClientStub, 10000, sim.Millisecond, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, ids
}

func TestInFlightReroutesAroundFailure(t *testing.T) {
	g, ids := diamond(t)
	eng := sim.NewEngine(1)
	net := New(eng, g, topology.NewRouter(g), Config{})

	delivered := 0
	net.Register(ids["D"], func(pkt Packet) { delivered++ })

	// The A-B link fails while the packet is serializing on S-A, before
	// it reaches A. The packet must detour via C and still arrive.
	net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	eng.Schedule(500*sim.Microsecond, func() { g.FailLink(ids["AB"]) })
	eng.Run(sim.Second)

	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1 (rerouted via detour)", delivered)
	}
	st := net.Stats()
	if st.ReroutedPackets != 1 {
		t.Errorf("ReroutedPackets = %d, want 1", st.ReroutedPackets)
	}
	if st.LinkDownDrops != 0 {
		t.Errorf("LinkDownDrops = %d, want 0", st.LinkDownDrops)
	}
}

func TestInFlightDropWhenUnreachable(t *testing.T) {
	g, ids := diamond(t)
	eng := sim.NewEngine(1)
	net := New(eng, g, topology.NewRouter(g), Config{})

	delivered := 0
	net.Register(ids["D"], func(pkt Packet) { delivered++ })

	// Cut D off entirely while the packet is in flight: it must drop.
	net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	eng.Schedule(500*sim.Microsecond, func() { g.Partition([]int{ids["D"]}) })
	eng.Run(sim.Second)

	if delivered != 0 {
		t.Fatalf("delivered %d packets through a partition, want 0", delivered)
	}
	if st := net.Stats(); st.LinkDownDrops != 1 {
		t.Errorf("LinkDownDrops = %d, want 1", st.LinkDownDrops)
	}

	// After Heal, fresh sends get through again.
	g.Heal()
	net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	eng.Run(2 * sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d packets after Heal, want 1", delivered)
	}
}

func TestSendToFailedDestinationDropped(t *testing.T) {
	g, ids := diamond(t)
	eng := sim.NewEngine(1)
	net := New(eng, g, topology.NewRouter(g), Config{})
	delivered := 0
	net.Register(ids["D"], func(pkt Packet) { delivered++ })

	g.FailLink(ids["BD"])
	net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	eng.Run(sim.Second)
	if delivered != 0 {
		t.Fatalf("delivered %d, want 0 (destination access link down)", delivered)
	}
	// Send-time unreachability is not a traversal drop.
	if st := net.Stats(); st.LinkDownDrops != 0 {
		t.Errorf("LinkDownDrops = %d, want 0", st.LinkDownDrops)
	}
}

func TestStaticRunNeverReroutes(t *testing.T) {
	g, ids := diamond(t)
	eng := sim.NewEngine(1)
	net := New(eng, g, topology.NewRouter(g), Config{})
	net.Register(ids["D"], func(pkt Packet) {})
	for i := 0; i < 50; i++ {
		net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	}
	eng.Run(10 * sim.Second)
	st := net.Stats()
	if st.ReroutedPackets != 0 || st.LinkDownDrops != 0 {
		t.Errorf("static run: rerouted=%d downDrops=%d, want 0/0", st.ReroutedPackets, st.LinkDownDrops)
	}
	if st.DeliveredPackets != 50 {
		t.Errorf("DeliveredPackets = %d, want 50", st.DeliveredPackets)
	}
}

// Bandwidth changes take effect for packets serialized after the
// change: a mid-run capacity cut stretches subsequent serialization.
func TestBandwidthChangeAffectsSerialization(t *testing.T) {
	g, ids := diamond(t)
	eng := sim.NewEngine(1)
	net := New(eng, g, topology.NewRouter(g), Config{})

	var arrivals []sim.Time
	net.Register(ids["D"], func(pkt Packet) { arrivals = append(arrivals, eng.Now()) })

	// 10 Mbps everywhere; 1000-byte packet serializes in 0.8ms per hop.
	net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	eng.Run(sim.Second)
	// Cut every link to 1 Mbps and send again from a quiet network.
	for _, k := range []string{"SA", "AB", "BD"} {
		g.SetBandwidth(ids[k], 1000)
	}
	t1 := eng.Now()
	net.Send(Packet{Kind: Data, Size: 1000, From: ids["S"], To: ids["D"]})
	eng.Run(2 * sim.Second)

	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	// 3 hops of 1000 bytes: 0.8ms/hop serialization at 10 Mbps, 8ms/hop
	// at 1 Mbps, plus 3ms total propagation.
	if fast := arrivals[0]; fast != 5400*sim.Microsecond {
		t.Errorf("transit before cut = %v, want 5.4ms", fast)
	}
	if slow := arrivals[1] - t1; slow != 27*sim.Millisecond {
		t.Errorf("transit after cut = %v, want 27ms", slow)
	}
}

// TestShardedLinkMutationsMatchSerial is the two-shard companion of the
// test above. Bandwidth and loss changes move no route epoch, only the
// link generation, and the shards' link records must pick them up at
// the barrier, before either shard runs another hop. On the line
// topology (c0 and s0 on shard 0, the rest on shard 1), c0 and c1 stream
// at each other, so packets are in flight on both shards when global
// events cut a link on each side to 1 Mbps and make the backbone lossy,
// and again when they undo it. The two-shard run must reproduce the
// serial run's arrival times and drops.
func TestShardedLinkMutationsMatchSerial(t *testing.T) {
	run := func(shards int) (string, Stats) {
		g, c0, c1, _ := barrierTopo(t)
		access0, access1 := g.AccessLink(c0), g.AccessLink(c1)
		backbone := -1
		for _, l := range g.Links {
			if l.Class == topology.TransitTransit {
				backbone = l.ID
			}
		}
		eng := sim.NewEngine(9)
		net := New(eng, g, topology.NewRouter(g), Config{})
		if shards > 1 {
			if got := net.EnableShards(shards); got != shards {
				t.Fatalf("EnableShards(%d) = %d", shards, got)
			}
			if net.ShardOf(c0) == net.ShardOf(c1) {
				t.Fatal("c0 and c1 landed on the same shard")
			}
		}
		dl := newDeliveryLog(len(g.Nodes))
		dl.attach(net, c0)
		dl.attach(net, c1)
		for i := 0; i < 100; i++ {
			seq := uint64(i)
			eng.At(sim.Time(2*i+1)*sim.Millisecond, func() {
				net.Send(Packet{Kind: Data, Seq: seq, Size: 1000, From: c0, To: c1})
				net.Send(Packet{Kind: Data, Seq: seq, Size: 1000, From: c1, To: c0})
			})
		}
		eng.At(40*sim.Millisecond, func() {
			g.SetBandwidth(access0, 1000)
			g.SetBandwidth(access1, 1000)
			g.SetLoss(backbone, 0.2)
		})
		eng.At(120*sim.Millisecond, func() {
			g.SetBandwidth(access0, 4*1000)
			g.SetLoss(backbone, 0)
		})
		net.Run(sim.Second)
		return dl.flatten(), net.Stats()
	}
	serialLog, serial := run(1)
	// The huge base bandwidth never queues and no link is lossy, so
	// drops of both kinds mean both mutations reached the hop.
	if serial.CongestionDrops == 0 || serial.RandomLossDrops == 0 {
		t.Fatalf("serial run: %+v, want congestion and loss drops", serial)
	}
	shardedLog, sharded := run(2)
	if shardedLog != serialLog {
		t.Errorf("two-shard arrivals differ from serial")
	}
	if sharded != serial {
		t.Errorf("two-shard stats %+v, serial %+v", sharded, serial)
	}
}
