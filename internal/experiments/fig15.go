package experiments

import (
	"math/rand"

	"bullet"
	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// planetLab builds the §4.7 PlanetLab-style wide-area topology: 47
// participants, a source in Europe behind a constrained access link
// (cs.unibo.it's congested outbound in the paper), 10 further European
// nodes, and 36 well-provisioned US nodes across two coasts, joined by
// a transatlantic backbone. constrainedRoot=false models the paper's
// follow-up where the constrained source is replaced by a
// well-connected US host. The source is the graph's first client.
func planetLab(constrainedRoot bool, seed int64) (*topology.Graph, error) {
	b := topology.NewBuilder()
	rng := rand.New(rand.NewSource(seed ^ 0x706c616e))
	ms := func(f float64) sim.Duration { return sim.Duration(f * float64(sim.Millisecond)) }

	// Backbone: one European hub, two US hubs (east/west).
	eu := b.AddNode(topology.Transit, 0, 0)
	usEast := b.AddNode(topology.Transit, 40, 0)
	usWest := b.AddNode(topology.Transit, 70, 0)
	b.AddLink(eu, usEast, topology.TransitTransit, 155000, ms(40), 0) // transatlantic
	b.AddLink(usEast, usWest, topology.TransitTransit, 622000, ms(30), 0)

	// Root in Europe, added before any other client. The constrained
	// variant throttles its access link to ~1 Mbps (cannot even source
	// the 1.5 Mbps stream alone).
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
	return b.Build()
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
	constrained := func(seed int64) (*topology.Graph, error) { return planetLab(true, seed) }
	mesh := arm{label: "bullet", graph: constrained, proto: bullet.BulletProtocol{Config: bulletConfig(sc, rate)},
		tree: func(w *bullet.World) (*overlay.Tree, error) {
			c := w.Participants()
			return overlay.Random(c, c[0], 4, rand.New(rand.NewSource(seed^0x66313562)))
		}}
	// The paper handcrafted trees from pathload measurements; the static
	// estimator plays that role, with the root's three children chosen
	// best-first or worst-first.
	handcrafted := func(label string, good bool) arm {
		return arm{label: label, graph: constrained, proto: bullet.StreamerProtocol{Config: streamConfig(sc, rate)},
			tree: func(w *bullet.World) (*overlay.Tree, error) {
				c := w.Participants()
				return overlay.Handcrafted(w.Router(), c, c[0], 1500, 3, good)
			}}
	}
	err := runArms(sc, seed, usefulSeries(r),
		mesh, handcrafted("good_tree", true), handcrafted("worst_tree", false))
	if err != nil {
		return nil, err
	}

	// Unconstrained-source control (in-text: Bullet achieves the full
	// 1.5 Mbps on the high-bandwidth topology).
	control := mesh
	control.graph = func(seed int64) (*topology.Graph, error) { return planetLab(false, seed) }
	run, err := control.run(sc, seed)
	if err != nil {
		return nil, err
	}
	tail := sc.Start + sim.Duration(0.5*float64(sc.Duration))
	r.Summary["bullet_unconstrained_kbps"] = run.col.MeanOver(tail, sc.RunUntil, metrics.Useful)
	return r, nil
}
