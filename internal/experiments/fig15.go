package experiments

import (
	"math/rand"

	"bullet/internal/core"
	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/streamer"
	"bullet/internal/topology"
)

// planetLab builds the §4.7 PlanetLab-style wide-area topology: 47
// participants, a source in Europe behind a constrained access link
// (cs.unibo.it's congested outbound in the paper), 10 further European
// nodes, and 36 well-provisioned US nodes across two coasts, joined by
// a transatlantic backbone. constrainedRoot=false models the paper's
// follow-up where the constrained source is replaced by a
// well-connected US host.
func planetLab(constrainedRoot bool, seed int64) (*topology.Graph, int, error) {
	b := topology.NewBuilder()
	rng := rand.New(rand.NewSource(seed ^ 0x706c616e))
	ms := func(f float64) sim.Duration { return sim.Duration(f * float64(sim.Millisecond)) }

	// Backbone: one European hub, two US hubs (east/west).
	eu := b.AddNode(topology.Transit, 0, 0)
	usEast := b.AddNode(topology.Transit, 40, 0)
	usWest := b.AddNode(topology.Transit, 70, 0)
	b.AddLink(eu, usEast, topology.TransitTransit, 155000, ms(40), 0) // transatlantic
	b.AddLink(usEast, usWest, topology.TransitTransit, 622000, ms(30), 0)

	// Root in Europe. The constrained variant throttles its access
	// link to ~1 Mbps (cannot even source the 1.5 Mbps stream alone).
	root := b.AddNode(topology.Client, -2, 1)
	rootKbps := 1000.0
	if !constrainedRoot {
		rootKbps = 20000
	}
	b.AddLink(root, eu, topology.ClientStub, rootKbps, ms(2), 0)

	// 10 European nodes: modest academic links of the era.
	for i := 0; i < 10; i++ {
		c := b.AddNode(topology.Client, -1+rng.Float64()*4, -2+rng.Float64()*4)
		b.AddLink(c, eu, topology.ClientStub, 1500+rng.Float64()*2000, ms(2+rng.Float64()*12), 0)
	}
	// 36 US nodes split across the two hubs. PlanetLab sites are
	// heterogeneous: most are well provisioned, but roughly a fifth
	// sit behind constrained access links — these are the nodes the
	// "worst" tree deliberately places near the root, throttling their
	// subtrees, and the "good" tree pushes to the leaves.
	for i := 0; i < 36; i++ {
		hub := usEast
		x := 38.0
		if i%2 == 1 {
			hub = usWest
			x = 68
		}
		kbps := 6000 + rng.Float64()*6000
		if i%5 == 0 {
			kbps = 700 + rng.Float64()*800 // constrained site
		}
		c := b.AddNode(topology.Client, x+rng.Float64()*6, -3+rng.Float64()*6)
		b.AddLink(c, hub, topology.ClientStub, kbps, ms(2+rng.Float64()*20), 0)
	}
	g, err := b.Build()
	return g, root, err
}

// Fig15 reproduces Figure 15: on the PlanetLab-style topology with a
// bandwidth-constrained European source streaming 1.5 Mbps, Bullet
// over a random tree versus TFRC streaming over the handcrafted "good"
// tree (high measured bandwidth near the root) and "worst" tree. The
// summary also records the unconstrained-source control: Bullet
// reaches the full rate when the source is well connected.
func Fig15(sc Scale, seed int64) (*Result, error) {
	const rate = 1500
	r := newResult("Figure 15: PlanetLab-style constrained-source streaming")

	type deployment struct {
		label string
		run   func(w *world, g *topology.Graph, root int, col *metrics.Collector) error
	}
	mkWorld := func(constrained bool) (*world, *topology.Graph, int, error) {
		g, root, err := planetLab(constrained, seed)
		if err != nil {
			return nil, nil, 0, err
		}
		return worldOn(g, sc, seed), g, root, nil
	}

	deployBullet := func(w *world, g *topology.Graph, root int, col *metrics.Collector) error {
		tree, err := overlay.Random(reorderRootFirst(g.Clients, root), root, 4,
			rand.New(rand.NewSource(seed^0x66313562)))
		if err != nil {
			return err
		}
		cfg := bulletConfig(sc, rate)
		_, err = core.Deploy(w.net, tree, cfg, col)
		return err
	}
	deployTree := func(good bool) func(w *world, g *topology.Graph, root int, col *metrics.Collector) error {
		return func(w *world, g *topology.Graph, root int, col *metrics.Collector) error {
			// The paper handcrafted trees from pathload measurements;
			// the static estimator plays that role, with the root's
			// three children chosen best-first or worst-first.
			tree, err := overlay.Handcrafted(w.rt, g.Clients, root, 1500, 3, good)
			if err != nil {
				return err
			}
			_, err = streamer.Deploy(w.net, tree, streamer.Config{
				RateKbps: rate, PacketSize: 1500, Start: sc.Start, Duration: sc.Duration,
			}, col)
			return err
		}
	}

	for _, d := range []deployment{
		{"bullet", deployBullet},
		{"good_tree", deployTree(true)},
		{"worst_tree", deployTree(false)},
	} {
		w, g, root, err := mkWorld(true)
		if err != nil {
			return nil, err
		}
		col := metrics.NewCollector(sim.Second)
		if err := d.run(w, g, root, col); err != nil {
			return nil, err
		}
		w.run(sc.RunUntil)
		r.addSeries(d.label, col.Series(metrics.Useful))
	}

	// Unconstrained-source control (in-text: Bullet achieves the full
	// 1.5 Mbps on the high-bandwidth topology).
	w, g, root, err := mkWorld(false)
	if err != nil {
		return nil, err
	}
	col := metrics.NewCollector(sim.Second)
	if err := deployBullet(w, g, root, col); err != nil {
		return nil, err
	}
	w.run(sc.RunUntil)
	tail := sc.Start + sim.Duration(0.5*float64(sc.Duration))
	r.Summary["bullet_unconstrained_kbps"] = col.MeanOver(tail, sc.RunUntil, metrics.Useful)
	return r, nil
}

// reorderRootFirst returns participants with root moved to the front
// (overlay.Random treats the first element's position irrelevantly but
// root must be a member).
func reorderRootFirst(participants []int, root int) []int {
	out := make([]int, 0, len(participants))
	out = append(out, root)
	for _, p := range participants {
		if p != root {
			out = append(out, p)
		}
	}
	return out
}
