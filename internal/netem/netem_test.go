package netem

import (
	"testing"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

// twoNode builds a minimal topology: two clients attached to one stub
// domain, so the path is client-stub-...-stub-client.
func testNet(t *testing.T, seed int64, loss topology.LossProfile) (*sim.Engine, *Network, *topology.Graph) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 1, TransitPerDomain: 2,
		StubDomains: 2, StubDomainSize: 3,
		Clients: 6, Bandwidth: topology.MediumBandwidth,
		Loss: loss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	net := New(eng, g, topology.NewRouter(g), Config{})
	return eng, net, g
}

func TestDeliveryAndLatency(t *testing.T) {
	eng, net, g := testNet(t, 1, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	var gotAt sim.Time
	var got Packet
	net.Register(dst, func(p Packet) { gotAt = eng.Now(); got = p })
	net.Send(Packet{Kind: Data, Seq: 42, Size: 1500, From: src, To: dst})
	eng.Run(10 * sim.Second)
	if got.Seq != 42 {
		t.Fatalf("packet not delivered: %+v", got)
	}
	// Latency must be at least the propagation delay of the path.
	minDelay := net.rt.Delay(src, dst)
	if gotAt < minDelay {
		t.Fatalf("delivered at %v, before min propagation %v", gotAt, minDelay)
	}
	st := net.Stats()
	if st.DataBytesSent != 1500 || st.DataBytesDelivered != 1500 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSerializationDelay(t *testing.T) {
	eng, net, g := testNet(t, 2, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	var small, large sim.Time
	net.Register(dst, func(p Packet) {
		if p.Size == 100 {
			small = eng.Now()
		} else {
			large = eng.Now()
		}
	})
	net.Send(Packet{Kind: Data, Size: 100, From: src, To: dst, Seq: 1})
	eng.Run(5 * sim.Second)
	eng2 := eng.Now()
	_ = eng2
	net.Send(Packet{Kind: Data, Size: 14000, From: src, To: dst, Seq: 2})
	eng.Run(20 * sim.Second)
	if small == 0 || large == 0 {
		t.Fatal("packets not delivered")
	}
	if large-5*sim.Second <= small {
		t.Fatalf("serialization not modeled: small latency %v, large latency %v", small, large-5*sim.Second)
	}
}

func TestCongestionDrops(t *testing.T) {
	eng, net, g := testNet(t, 3, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	delivered := 0
	net.Register(dst, func(p Packet) { delivered++ })
	// Access link is at most 2800 Kbps = 350 KB/s. Inject 10 MB in one
	// instant; the 150ms queue bound must drop most of it.
	for i := 0; i < 10000; i++ {
		net.Send(Packet{Kind: Data, Seq: uint64(i), Size: 1000, From: src, To: dst})
	}
	eng.Run(60 * sim.Second)
	st := net.Stats()
	if st.CongestionDrops == 0 {
		t.Fatal("no congestion drops under massive overload")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if delivered > 2000 {
		t.Fatalf("delivered %d packets; queue bound not enforced", delivered)
	}
	if uint64(delivered)+st.CongestionDrops != 10000 {
		t.Fatalf("conservation violated: %d delivered + %d dropped != 10000", delivered, st.CongestionDrops)
	}
}

func TestRandomLoss(t *testing.T) {
	// All links overloaded: loss 100%... instead use PaperLoss but send
	// many packets over a long path and expect some random loss drops.
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 6, StubDomainSize: 4,
		Clients: 10, Bandwidth: topology.HighBandwidth,
		Loss: topology.LossProfile{NonTransitMax: 0.05, TransitMax: 0.05, OverloadedFrac: 0.2, OverloadedLo: 0.2, OverloadedHi: 0.3},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(4)
	net := New(eng, g, topology.NewRouter(g), Config{})
	src, dst := g.Clients[0], g.Clients[9]
	delivered := 0
	net.Register(dst, func(p Packet) { delivered++ })
	for i := 0; i < 500; i++ {
		at := sim.Time(i) * 20 * sim.Millisecond
		pkt := Packet{Kind: Data, Seq: uint64(i), Size: 1000, From: src, To: dst}
		eng.At(at, func() { net.Send(pkt) })
	}
	eng.Run(60 * sim.Second)
	st := net.Stats()
	if st.RandomLossDrops == 0 {
		t.Fatal("expected random loss drops on lossy topology")
	}
	if delivered == 0 {
		t.Fatal("nothing survived")
	}
	if delivered+int(st.RandomLossDrops)+int(st.CongestionDrops) != 500 {
		t.Fatalf("conservation violated: %d + %d + %d != 500", delivered, st.RandomLossDrops, st.CongestionDrops)
	}
}

func TestControlReliable(t *testing.T) {
	g, err := topology.Generate(topology.Config{
		TransitDomains: 1, TransitPerDomain: 2,
		StubDomains: 2, StubDomainSize: 3,
		Clients: 4, Bandwidth: topology.LowBandwidth,
		Loss: topology.LossProfile{NonTransitMax: 0.5, TransitMax: 0.5},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(5)
	net := New(eng, g, topology.NewRouter(g), Config{})
	src, dst := g.Clients[0], g.Clients[1]
	delivered := 0
	net.Register(dst, func(p Packet) { delivered++ })
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 50 * sim.Millisecond
		eng.At(at, func() { net.Send(Packet{Kind: Control, Size: 200, From: src, To: dst}) })
	}
	eng.Run(60 * sim.Second)
	if delivered != 200 {
		t.Fatalf("control packets lost: %d/200 delivered", delivered)
	}
	if net.Stats().ControlBytes != 200*200 {
		t.Fatalf("control byte accounting wrong: %d", net.Stats().ControlBytes)
	}
}

func TestUnregisteredDrop(t *testing.T) {
	eng, net, g := testNet(t, 6, topology.NoLoss)
	net.Send(Packet{Kind: Data, Size: 100, From: g.Clients[0], To: g.Clients[2]})
	eng.Run(5 * sim.Second)
	if net.Stats().DataBytesDelivered != 0 {
		t.Fatal("packet delivered to unregistered node")
	}
}

func TestLinkStressAccounting(t *testing.T) {
	eng, net, g := testNet(t, 7, topology.NoLoss)
	src := g.Clients[0]
	for _, dst := range g.Clients[1:4] {
		net.Register(dst, func(Packet) {})
		net.Send(Packet{Kind: Data, Seq: 99, Size: 500, From: src, To: dst, Trace: true})
	}
	eng.Run(5 * sim.Second)
	avg, max := net.LinkStress()
	if avg < 1 {
		t.Fatalf("avg stress %v < 1", avg)
	}
	// Three copies of seq 99 leave src over its single access link.
	if max != 3 {
		t.Fatalf("max stress %d, want 3 (single access link)", max)
	}
}

func TestFIFOPerLink(t *testing.T) {
	eng, net, g := testNet(t, 8, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	var seqs []uint64
	net.Register(dst, func(p Packet) { seqs = append(seqs, p.Seq) })
	for i := 0; i < 50; i++ {
		net.Send(Packet{Kind: Data, Seq: uint64(i), Size: 1200, From: src, To: dst})
	}
	eng.Run(30 * sim.Second)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] < seqs[i-1] {
			t.Fatalf("reordering on a single path: %v", seqs)
		}
	}
	if len(seqs) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestThroughputMatchesBottleneck(t *testing.T) {
	eng, net, g := testNet(t, 9, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	bytes := 0
	net.Register(dst, func(p Packet) { bytes += p.Size })
	// Saturate for 10 seconds with paced sends at far above capacity.
	stop := sim.Time(10 * sim.Second)
	var pump func()
	pump = func() {
		if eng.Now() >= stop {
			return
		}
		net.Send(Packet{Kind: Data, Size: 1500, From: src, To: dst})
		eng.After(sim.Millisecond, pump)
	}
	pump()
	eng.Run(12 * sim.Second)
	bottleneck := net.rt.Bottleneck(src, dst) // bytes/s
	got := float64(bytes) / 10.0
	if got > bottleneck*1.05 {
		t.Fatalf("throughput %.0f exceeds bottleneck %.0f", got, bottleneck)
	}
	if got < bottleneck*0.7 {
		t.Fatalf("throughput %.0f well under bottleneck %.0f", got, bottleneck)
	}
}

// TestSteadyStateAllocatesNothing sends across a three-link line once
// the route memo, the inflight arena and the engine's buckets are warm:
// the Send, its three hop events and the delivery allocate nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddNode(topology.Client, 0, 0)
	s1 := b.AddNode(topology.Stub, 1, 0)
	s2 := b.AddNode(topology.Stub, 2, 0)
	dst := b.AddNode(topology.Client, 3, 0)
	b.AddLink(src, s1, topology.ClientStub, 10000, sim.Millisecond, 0)
	b.AddLink(s1, s2, topology.StubStub, 10000, sim.Millisecond, 0)
	b.AddLink(s2, dst, topology.ClientStub, 10000, sim.Millisecond, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := New(eng, g, topology.NewRouter(g), Config{})
	delivered := 0
	net.Register(dst, func(Packet) { delivered++ })
	step := func() {
		net.Send(Packet{Kind: Data, Seq: uint64(delivered), Size: 1000, From: src, To: dst})
		net.Send(Packet{Kind: Control, Size: 48, From: src, To: dst})
		eng.Run(eng.Now() + sim.Second)
	}
	// Warm-up: a step moves the clock a second, which walks the hop
	// events over every bucket of the engine's 256-slot calendar ring.
	const warm = 512
	for i := 0; i < warm; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("%v allocations per Send in steady state, want 0", avg)
	}
	if want := 2 * (warm + 21); delivered != want { // AllocsPerRun adds a run of its own
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
}
