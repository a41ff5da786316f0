package epidemic

import (
	"math/rand"
	"testing"

	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/topology"
	"bullet/internal/workload"
)

func world(t *testing.T, seed int64, clients int) (*sim.Engine, *netem.Network, *topology.Graph, *topology.Router) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 10, StubDomainSize: 5,
		Clients: clients, Bandwidth: topology.MediumBandwidth, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	rt := topology.NewRouter(g)
	return eng, netem.New(eng, g, rt, netem.Config{}), g, rt
}

func TestGossipDisseminates(t *testing.T) {
	eng, net, g, _ := world(t, 1, 25)
	col := metrics.NewCollector(sim.Second)
	_, err := DeployGossip(net, g.Clients, g.Clients[0], workload.Stream{
		RateKbps: 300, PacketSize: 1500, Start: 0, Duration: 60 * sim.Second,
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(70 * sim.Second)
	useful := col.MeanOver(20*sim.Second, 70*sim.Second, metrics.Useful)
	if useful < 100 {
		t.Fatalf("gossip delivered only %.0f Kbps of a 300 Kbps stream", useful)
	}
}

func TestGossipProducesDuplicates(t *testing.T) {
	// The paper's point: epidemics waste bandwidth on duplicates —
	// with fanout 5 over 25 nodes, raw should clearly exceed useful.
	eng, net, g, _ := world(t, 2, 25)
	col := metrics.NewCollector(sim.Second)
	if _, err := DeployGossip(net, g.Clients, g.Clients[0], workload.Stream{
		RateKbps: 300, PacketSize: 1500, Start: 0, Duration: 60 * sim.Second,
	}, col); err != nil {
		t.Fatal(err)
	}
	eng.Run(70 * sim.Second)
	if col.DuplicateRatio() < 0.2 {
		t.Fatalf("gossip duplicate ratio %.3f suspiciously low", col.DuplicateRatio())
	}
}

func TestGossipRejectsZeroRate(t *testing.T) {
	_, net, g, _ := world(t, 3, 10)
	col := metrics.NewCollector(sim.Second)
	if _, err := DeployGossip(net, g.Clients, g.Clients[0], workload.Stream{}, col); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestAntiEntropyRecoversLosses(t *testing.T) {
	// Streaming over a poor random tree loses data; anti-entropy must
	// recover a meaningful amount beyond what the tree delivers.
	eng, net, g, _ := world(t, 4, 25)
	tree, err := overlay.Random(g.Clients, g.Clients[0], 4, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(sim.Second)
	if _, err := DeployAntiEntropy(net, tree, workload.Stream{
		RateKbps: 600, PacketSize: 1500, Start: 0, Duration: 120 * sim.Second,
	}, col); err != nil {
		t.Fatal(err)
	}
	eng.Run(120 * sim.Second)
	useful := col.MeanOver(40*sim.Second, 120*sim.Second, metrics.Useful)
	parent := col.MeanOver(40*sim.Second, 120*sim.Second, metrics.Parent)
	if useful <= parent {
		t.Fatalf("anti-entropy recovered nothing: useful %.0f <= parent %.0f", useful, parent)
	}
}

func TestAntiEntropyDefaults(t *testing.T) {
	eng, net, g, _ := world(t, 5, 15)
	tree, _ := overlay.Random(g.Clients, g.Clients[0], 4, rand.New(rand.NewSource(5)))
	col := metrics.NewCollector(sim.Second)
	sys, err := DeployAntiEntropy(net, tree, workload.Stream{
		RateKbps: 300, PacketSize: 0, Start: 0, Duration: 30 * sim.Second,
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stream.PacketSize != 1500 {
		t.Fatalf("defaults not applied: %+v", sys.Stream)
	}
	eng.Run(40 * sim.Second)
	if col.Total(metrics.Useful) == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestAntiEntropyRejectsZeroRate(t *testing.T) {
	_, net, g, _ := world(t, 6, 10)
	tree, _ := overlay.Random(g.Clients, g.Clients[0], 4, rand.New(rand.NewSource(6)))
	col := metrics.NewCollector(sim.Second)
	if _, err := DeployAntiEntropy(net, tree, workload.Stream{}, col); err == nil {
		t.Fatal("zero rate accepted")
	}
}
