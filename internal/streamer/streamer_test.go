package streamer

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

func world(t *testing.T, seed int64, clients int, bw topology.BandwidthProfile) (*sim.Engine, *netem.Network, *topology.Graph, *topology.Router) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 10, StubDomainSize: 5,
		Clients: clients, Bandwidth: bw, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	rt := topology.NewRouter(g)
	return eng, netem.New(eng, g, rt, netem.Config{}), g, rt
}

func TestStreamingDeliversDownTree(t *testing.T) {
	eng, net, g, rt := world(t, 1, 20, topology.HighBandwidth)
	tree, err := overlay.Bottleneck(rt, g.Clients, g.Clients[0], 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(sim.Second)
	if _, err := Deploy(net, tree, workload.Stream{RateKbps: 300, PacketSize: 1500, Start: 5 * sim.Second, Duration: 60 * sim.Second}, col); err != nil {
		t.Fatal(err)
	}
	eng.Run(70 * sim.Second)
	// On a high-bandwidth topology a 300 Kbps stream should reach most
	// nodes at close to full rate once ramped.
	mean := col.MeanOver(30*sim.Second, 65*sim.Second, metrics.Useful)
	if mean < 200 {
		t.Fatalf("steady-state useful bandwidth %.0f Kbps, want near 300", mean)
	}
	if mean > 330 {
		t.Fatalf("useful bandwidth %.0f exceeds source rate", mean)
	}
	if col.DuplicateRatio() != 0 {
		t.Fatal("plain streaming produced duplicates")
	}
}

func TestBandwidthMonotonicallyDecreasesDownTree(t *testing.T) {
	// The core tree limitation (§1): bandwidth is monotonically
	// non-increasing down any root-to-leaf chain. Check depth-1 mean >=
	// deep-node mean on a constrained topology.
	eng, net, g, rt := world(t, 2, 25, topology.LowBandwidth)
	tree, err := overlay.Bottleneck(rt, g.Clients, g.Clients[0], 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(sim.Second)
	if _, err := Deploy(net, tree, workload.Stream{RateKbps: 600, PacketSize: 1500, Start: 0, Duration: 60 * sim.Second}, col); err != nil {
		t.Fatal(err)
	}
	eng.Run(60 * sim.Second)
	// True tree invariant: a child can never receive more distinct data
	// than its parent received (it can only forward what arrived).
	useful := func(p int) float64 {
		var sum float64
		for _, pt := range col.NodeSeries(p, metrics.Useful) {
			sum += pt.Kbps
		}
		return sum
	}
	checked := 0
	for _, p := range tree.Participants {
		parent, ok := tree.Parent(p)
		if !ok || parent == tree.Root {
			continue // the root generates rather than receives
		}
		if useful(p) > useful(parent)*1.02+1 {
			t.Fatalf("child %d received %.0f > parent %d's %.0f: monotonicity violated",
				p, useful(p), parent, useful(parent))
		}
		checked++
	}
	if checked == 0 {
		t.Skip("tree too shallow for comparison")
	}
}

func TestRandomTreeWorseThanBottleneckTree(t *testing.T) {
	// Figure 6's shape at small scale: streaming over the offline
	// bottleneck tree beats streaming over a random tree on a
	// constrained topology.
	run := func(buildRandom bool) float64 {
		eng, net, g, rt := world(t, 3, 30, topology.LowBandwidth)
		var tree *overlay.Tree
		var err error
		if buildRandom {
			tree, err = overlay.Random(g.Clients, g.Clients[0], 6, rand.New(rand.NewSource(42)))
		} else {
			tree, err = overlay.Bottleneck(rt, g.Clients, g.Clients[0], 1500, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		col := metrics.NewCollector(sim.Second)
		if _, err := Deploy(net, tree, workload.Stream{RateKbps: 600, PacketSize: 1500, Start: 0, Duration: 90 * sim.Second}, col); err != nil {
			t.Fatal(err)
		}
		eng.Run(90 * sim.Second)
		return col.MeanOver(30*sim.Second, 90*sim.Second, metrics.Useful)
	}
	randomBW := run(true)
	bottleneckBW := run(false)
	if bottleneckBW <= randomBW {
		t.Fatalf("bottleneck tree %.0f Kbps <= random tree %.0f Kbps", bottleneckBW, randomBW)
	}
}

func TestSourceStopsAtDuration(t *testing.T) {
	eng, net, g, rt := world(t, 4, 10, topology.HighBandwidth)
	tree, _ := overlay.Bottleneck(rt, g.Clients, g.Clients[0], 1500, 0)
	col := metrics.NewCollector(sim.Second)
	if _, err := Deploy(net, tree, workload.Stream{RateKbps: 300, PacketSize: 1500, Start: 0, Duration: 10 * sim.Second}, col); err != nil {
		t.Fatal(err)
	}
	eng.Run(40 * sim.Second)
	late := col.MeanOver(20*sim.Second, 40*sim.Second, metrics.Raw)
	if late > 1 {
		t.Fatalf("data still flowing after source stopped: %.1f Kbps", late)
	}
}

func TestFailureCutsSubtree(t *testing.T) {
	eng, net, g, rt := world(t, 5, 20, topology.HighBandwidth)
	tree, _ := overlay.Bottleneck(rt, g.Clients, g.Clients[0], 1500, 2)
	col := metrics.NewCollector(sim.Second)
	sys, err := Deploy(net, tree, workload.Stream{RateKbps: 300, PacketSize: 1500, Start: 0, Duration: 60 * sim.Second}, col)
	if err != nil {
		t.Fatal(err)
	}
	kids := tree.Children(tree.Root)
	if len(kids) == 0 {
		t.Skip("root childless")
	}
	victim := kids[0]
	sub := tree.SubtreeSize(victim)
	if sub < 2 {
		t.Skip("victim has no descendants")
	}
	eng.At(30*sim.Second, func() { sys.Fail(victim) })
	eng.Run(60 * sim.Second)
	// Descendants of the victim get nothing after the failure.
	var desc []int
	for _, p := range tree.Participants {
		if p != victim && tree.IsDescendant(victim, p) {
			desc = append(desc, p)
		}
	}
	for _, d := range desc {
		s := col.NodeSeries(d, metrics.Raw)
		for _, pt := range s[40:] {
			if pt.Kbps > 1 {
				t.Fatalf("descendant %d still receiving %.1f Kbps after ancestor failure", d, pt.Kbps)
			}
		}
	}
}

func TestConfigRejectsZeroRate(t *testing.T) {
	eng, net, g, rt := world(t, 6, 5, topology.HighBandwidth)
	_ = eng
	tree, _ := overlay.Bottleneck(rt, g.Clients, g.Clients[0], 1500, 0)
	col := metrics.NewCollector(sim.Second)
	if _, err := Deploy(net, tree, workload.Stream{RateKbps: 0}, col); err == nil {
		t.Fatal("zero rate accepted")
	}
}
