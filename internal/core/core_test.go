package core

import (
	"math/rand"
	"testing"

	"bullet/internal/epidemic"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/streamer"
	"bullet/internal/topology"
	"bullet/internal/workload"
)

type testWorld struct {
	eng  *sim.Engine
	net  *netem.Network
	g    *topology.Graph
	rt   *topology.Router
	tree *overlay.Tree
}

func buildWorld(t *testing.T, seed int64, clients int, bw topology.BandwidthProfile, loss topology.LossProfile) *testWorld {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 12, StubDomainSize: 5,
		Clients: clients, Bandwidth: bw, Loss: loss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	rt := topology.NewRouter(g)
	net := netem.New(eng, g, rt, netem.Config{})
	tree, err := overlay.Random(g.Clients, g.Clients[0], 5, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{eng: eng, net: net, g: g, rt: rt, tree: tree}
}

func runBullet(t *testing.T, w *testWorld, cfg Config, until sim.Duration) (*System, *metrics.Collector) {
	t.Helper()
	col := metrics.NewCollector(sim.Second)
	sys, err := Deploy(w.net, w.tree, cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	w.eng.Run(until)
	return sys, col
}

func TestBulletDeliversStream(t *testing.T) {
	w := buildWorld(t, 1, 40, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.Start = 20 * sim.Second
	cfg.Duration = 160 * sim.Second
	sys, col := runBullet(t, w, cfg, 180*sim.Second)
	useful := col.MeanOver(60*sim.Second, 180*sim.Second, metrics.Useful)
	if useful < 200 {
		t.Fatalf("Bullet useful bandwidth %.0f Kbps too low", useful)
	}
	if useful > 620 {
		t.Fatalf("useful bandwidth %.0f exceeds source rate", useful)
	}
	if sys.MeanSenders() < 1 {
		t.Fatalf("mesh did not form: mean senders %.2f", sys.MeanSenders())
	}
}

func TestBulletBeatsTreeStreamingOnRandomTree(t *testing.T) {
	// The paper's core claim at reduced scale: Bullet over a random
	// tree far exceeds plain streaming over the same random tree on a
	// constrained topology (Figure 7 vs Figure 6's random-tree line).
	runPlain := func() float64 {
		w := buildWorld(t, 2, 40, topology.MediumBandwidth, topology.NoLoss)
		col := metrics.NewCollector(sim.Second)
		_, err := streamer.Deploy(w.net, w.tree, workload.Stream{
			RateKbps: 600, PacketSize: 1500, Start: 20 * sim.Second, Duration: 160 * sim.Second,
		}, col)
		if err != nil {
			t.Fatal(err)
		}
		w.eng.Run(180 * sim.Second)
		return col.MeanOver(60*sim.Second, 180*sim.Second, metrics.Useful)
	}
	runMesh := func() float64 {
		w := buildWorld(t, 2, 40, topology.MediumBandwidth, topology.NoLoss)
		cfg := DefaultConfig(600)
		cfg.Start = 20 * sim.Second
		cfg.Duration = 160 * sim.Second
		_, col := runBullet(t, w, cfg, 180*sim.Second)
		return col.MeanOver(60*sim.Second, 180*sim.Second, metrics.Useful)
	}
	plain, mesh := runPlain(), runMesh()
	if mesh < plain*1.2 {
		t.Fatalf("Bullet %.0f Kbps did not beat plain streaming %.0f Kbps by 20%%", mesh, plain)
	}
}

func TestBulletDuplicateRatioLow(t *testing.T) {
	w := buildWorld(t, 3, 40, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.Start = 20 * sim.Second
	cfg.Duration = 160 * sim.Second
	_, col := runBullet(t, w, cfg, 180*sim.Second)
	if r := col.DuplicateRatio(); r > 0.15 {
		t.Fatalf("duplicate ratio %.3f; paper reports <10%%", r)
	}
}

func TestBulletControlOverheadBounded(t *testing.T) {
	w := buildWorld(t, 4, 40, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.Start = 10 * sim.Second
	cfg.Duration = 110 * sim.Second
	sys, _ := runBullet(t, w, cfg, 120*sim.Second)
	kbps := sys.ControlOverheadKbps()
	if kbps <= 0 {
		t.Fatal("no control traffic recorded")
	}
	if kbps > 60 {
		t.Fatalf("control overhead %.1f Kbps per node; paper reports ~30", kbps)
	}
}

func TestDisjointSendAblation(t *testing.T) {
	// Figure 10: disabling the disjoint strategy costs bandwidth.
	run := func(disjoint bool) float64 {
		w := buildWorld(t, 5, 40, topology.LowBandwidth, topology.NoLoss)
		cfg := DefaultConfig(600)
		cfg.Start = 20 * sim.Second
		cfg.Duration = 160 * sim.Second
		cfg.DisjointSend = disjoint
		_, col := runBullet(t, w, cfg, 180*sim.Second)
		return col.MeanOver(80*sim.Second, 180*sim.Second, metrics.Useful)
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Fatalf("disjoint send (%.0f Kbps) did not outperform non-disjoint (%.0f Kbps)", with, without)
	}
}

func TestBulletSurvivesWorstCaseFailure(t *testing.T) {
	// Figures 13/14: fail a child of the root. With RanSub failure
	// detection on, descendants keep receiving data through peers.
	w := buildWorld(t, 6, 40, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.Start = 10 * sim.Second
	cfg.Duration = 190 * sim.Second
	col := metrics.NewCollector(sim.Second)
	sys, err := Deploy(w.net, w.tree, cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	kids := w.tree.Children(w.tree.Root)
	var victim int
	best := -1
	for _, k := range kids {
		if d := w.tree.Descendants(k); d > best {
			best, victim = d, k
		}
	}
	if best < 3 {
		t.Skip("no root child with enough descendants in this draw")
	}
	w.eng.At(100*sim.Second, func() { sys.Fail(victim) })
	w.eng.Run(200 * sim.Second)

	var descendants []int
	for _, p := range w.tree.Participants {
		if p != victim && w.tree.IsDescendant(victim, p) {
			descendants = append(descendants, p)
		}
	}
	// Average descendant bandwidth after the failure must remain a
	// solid fraction of the pre-failure level (paper: negligible
	// disruption with recovery on).
	meanOver := func(nodes []int, from, to sim.Time) float64 {
		var sum float64
		var cnt int
		for _, nd := range nodes {
			s := col.NodeSeries(nd, metrics.Useful)
			for i := int(from / sim.Second); i < int(to/sim.Second) && i < len(s); i++ {
				sum += s[i].Kbps
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	before := meanOver(descendants, 60*sim.Second, 100*sim.Second)
	after := meanOver(descendants, 130*sim.Second, 200*sim.Second)
	if before == 0 {
		t.Fatal("descendants received nothing before failure")
	}
	if after < before*0.4 {
		t.Fatalf("descendants dropped from %.0f to %.0f Kbps after failure (>60%% loss)", before, after)
	}
}

func TestSenderListBounded(t *testing.T) {
	w := buildWorld(t, 8, 30, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.MaxSenders = 3
	cfg.MaxReceivers = 4
	cfg.Start = 10 * sim.Second
	cfg.Duration = 110 * sim.Second
	sys, _ := runBullet(t, w, cfg, 120*sim.Second)
	sys.Members.Range(func(id int, n *Node) bool {
		if len(n.senders) > 3 {
			t.Fatalf("node %d has %d senders (max 3)", id, len(n.senders))
		}
		if len(n.receivers) > 4 {
			t.Fatalf("node %d has %d receivers (max 4)", id, len(n.receivers))
		}
		for _, si := range n.senders {
			if si.node == id || si.node == n.parent {
				t.Fatalf("node %d peered with self or parent", id)
			}
		}
		return true
	})
}

func TestRowAssignmentsDistinct(t *testing.T) {
	w := buildWorld(t, 9, 30, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.Start = 10 * sim.Second
	cfg.Duration = 110 * sim.Second
	sys, _ := runBullet(t, w, cfg, 120*sim.Second)
	sys.Members.Range(func(id int, n *Node) bool {
		mods := make(map[int]bool)
		for _, si := range n.senders {
			if si.mod < 0 || si.mod >= len(n.senders) {
				t.Fatalf("node %d sender mod %d out of range [0,%d)", id, si.mod, len(n.senders))
			}
			if mods[si.mod] {
				t.Fatalf("node %d assigned duplicate mod %d", id, si.mod)
			}
			mods[si.mod] = true
		}
		return true
	})
}

func TestConfigValidation(t *testing.T) {
	w := buildWorld(t, 7, 10, topology.MediumBandwidth, topology.NoLoss)
	col := metrics.NewCollector(sim.Second)
	if _, err := Deploy(w.net, w.tree, DefaultConfig(0), col); err == nil {
		t.Fatal("zero rate accepted")
	}
	bad := DefaultConfig(600)
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero duration accepted")
	}
	ok := DefaultConfig(600)
	ok.PacketSize, ok.MaxSenders = 0, 0
	if err := ok.Validate(); err != nil || ok.MaxSenders != 10 {
		t.Fatalf("defaults not filled: %v senders=%d", err, ok.MaxSenders)
	}
	sys, err := Deploy(w.net, w.tree, ok, col)
	if err != nil || sys.Stream.PacketSize != 1500 {
		t.Fatalf("packet size not defaulted: %v", err)
	}
}

// Every tree protocol's Deploy refuses a nil tree with an error named
// after the deployment, instead of dereferencing it.
func TestDeploysRejectNilTree(t *testing.T) {
	w := buildWorld(t, 7, 10, topology.MediumBandwidth, topology.NoLoss)
	col := metrics.NewCollector(sim.Second)
	s := workload.Stream{RateKbps: 600, Duration: 10 * sim.Second}
	for _, tc := range []struct {
		name   string
		deploy func() error
	}{
		{"bullet", func() error { _, err := Deploy(w.net, nil, DefaultConfig(600), col); return err }},
		{"streamer", func() error { _, err := streamer.Deploy(w.net, nil, s, col); return err }},
		{"anti-entropy", func() error { _, err := epidemic.DeployAntiEntropy(w.net, nil, s, col); return err }},
	} {
		if err := tc.deploy(); err == nil || err.Error() != tc.name+": needs a tree" {
			t.Errorf("%s: Deploy(nil tree) = %v, want %q", tc.name, err, tc.name+": needs a tree")
		}
	}
}

func TestLinkStressTracing(t *testing.T) {
	w := buildWorld(t, 10, 30, topology.MediumBandwidth, topology.NoLoss)
	cfg := DefaultConfig(600)
	cfg.Start = 10 * sim.Second
	cfg.Duration = 110 * sim.Second
	cfg.TraceEvery = 100
	runBullet(t, w, cfg, 120*sim.Second)
	avg, max := w.net.LinkStress()
	if avg < 1 {
		t.Fatalf("avg link stress %.2f < 1", avg)
	}
	if max < 1 {
		t.Fatal("no traced packets crossed any link")
	}
	if avg > 5 {
		t.Fatalf("avg link stress %.2f implausibly high (paper ~1.5)", avg)
	}
}
