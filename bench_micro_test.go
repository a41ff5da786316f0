// Microbenchmarks for the event-dispatch hot path. Where bench_test.go
// measures whole experiments (seconds per iteration, gated loosely),
// these isolate the layers the per-event cost decomposes into —
// engine dispatch, netem delivery, arena churn, and the router's build
// and invalidation — so a regression shows up attributed to its layer
// instead of smeared across a Figure 7 run. All report allocations: the
// steady states of the first three are designed to allocate nothing per
// event.
package bullet_test

import (
	"testing"

	"bullet/internal/arena"
	"bullet/internal/netem"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// BenchmarkEngineDispatchBatch drives the engine's batched dispatch
// loop: bursts of events sharing a deadline, the shape netem delivery
// and protocol timer storms produce. Each iteration schedules and
// executes 64 batches of 16 same-timestamp events.
func BenchmarkEngineDispatchBatch(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	var fired int
	fn := func() { fired++ }
	const batches, perBatch = 64, 16
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for t := 1; t <= batches; t++ {
			at := base + sim.Time(t)*sim.Time(sim.Microsecond)
			for j := 0; j < perBatch; j++ {
				e.Schedule(at, fn)
			}
		}
		e.Run(base + sim.Time(batches+1)*sim.Time(sim.Microsecond))
	}
	if fired != b.N*batches*perBatch {
		b.Fatalf("fired %d events, want %d", fired, b.N*batches*perBatch)
	}
}

// BenchmarkNetemDeliverBurst pushes a burst of data packets across a
// three-hop path (client-stub-stub-client) per iteration: the emulator
// hop/deliver path with link serialization, queuing, and handler
// dispatch, but no protocol logic on top.
func BenchmarkNetemDeliverBurst(b *testing.B) {
	b.ReportAllocs()
	const burst = 256
	bld := topology.NewBuilder()
	c0 := bld.AddNode(topology.Client, 0, 0)
	s0 := bld.AddNode(topology.Stub, 1, 0)
	s1 := bld.AddNode(topology.Stub, 2, 0)
	c1 := bld.AddNode(topology.Client, 3, 0)
	bld.AddLink(c0, s0, topology.ClientStub, 1e6, sim.Millisecond, 0)
	bld.AddLink(s0, s1, topology.StubStub, 1e6, 2*sim.Millisecond, 0)
	bld.AddLink(s1, c1, topology.ClientStub, 1e6, sim.Millisecond, 0)
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := netem.New(eng, g, topology.NewRouter(g), netem.Config{})
	delivered := 0
	net.Register(c1, func(pkt netem.Packet) { delivered++ })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			net.Send(netem.Packet{Kind: netem.Data, Seq: uint64(j), Size: 1500, From: c0, To: c1})
		}
		eng.Run(eng.Now() + 10*sim.Time(sim.Second))
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// BenchmarkArenaChurn cycles 512 in-flight objects through a shard
// arena per iteration — the allocate/retire rhythm of packet delivery.
// Steady state must be allocation-free: every Get after the first lap
// is served from the free list.
func BenchmarkArenaChurn(b *testing.B) {
	b.ReportAllocs()
	var ar arena.Arena[[64]byte]
	buf := make([]*[64]byte, 512)
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = ar.Get()
		}
		for j := range buf {
			ar.Put(buf[j])
		}
	}
}

func benchTopology(b *testing.B, nodes, clients int) *topology.Graph {
	b.Helper()
	cfg := topology.Sized(nodes, clients, topology.MediumBandwidth)
	cfg.Seed = 42
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkRouterBuild times NewRouter on the topologies of the small,
// paper and bullet-wide scales: contract validation, atom and terminal
// indexing and table allocation, and no shortest path — those are
// computed on first use. The cost must stay linear in the graph.
func BenchmarkRouterBuild(b *testing.B) {
	for _, sz := range []struct {
		name           string
		nodes, clients int
	}{{"5k", 5000, 150}, {"20k", 20000, 1000}, {"60k", 60000, 3000}} {
		b.Run(sz.name, func(b *testing.B) {
			g := benchTopology(b, sz.nodes, sz.clients)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if topology.NewRouter(g) == nil {
					b.Fatal("no router")
				}
			}
		})
	}
}

// BenchmarkRouterInvalidate is the cost of one route change to a warm
// router at the small scale (5,000 nodes, 150 participants): a backbone
// link fails, the router syncs, 256 participant pairs are asked again,
// and the link comes back. It mirrors the repo benchmark's
// topology.invalidate_ns probe.
func BenchmarkRouterInvalidate(b *testing.B) {
	g := benchTopology(b, 5000, 150)
	rt := topology.NewRouter(g)
	srcs, dsts := g.Clients[:32], g.Clients[len(g.Clients)-8:]
	hops := 0
	query := func() {
		for _, s := range srcs {
			for _, d := range dsts {
				hops += len(rt.Path(s, d))
			}
		}
	}
	backbone := -1
	for i := range g.Links {
		if g.Links[i].Class == topology.TransitTransit {
			backbone = i
			break
		}
	}
	query()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FailLink(backbone)
		rt.Sync()
		query()
		g.RestoreLink(backbone)
	}
	b.StopTimer()
	if hops == 0 {
		b.Fatal("no path between participants")
	}
}
