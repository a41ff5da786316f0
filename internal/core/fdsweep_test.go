package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// TestFDSweep is a diagnostic for the freshness gate on the medium
// profile (the fig7 configuration); run with -run FDSweep -v.
func TestFDSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic only")
	}
	for _, fd := range []sim.Duration{6 * sim.Second, 11 * sim.Second, 16 * sim.Second} {
		c := topology.Sized(1500, 40, topology.MediumBandwidth)
		c.Seed = 3
		g, err := topology.Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(3)
		rt := topology.NewRouter(g)
		net := netem.New(eng, g, rt, netem.Config{})
		tree, err := overlay.Random(g.Clients, g.Clients[0], 5, rand.New(rand.NewSource(3^0x74726565)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(600)
		cfg.Start = 20 * sim.Second
		cfg.Duration = 130 * sim.Second
		cfg.MaxSenders, cfg.MaxReceivers = 4, 4
		cfg.FreshnessDelay = fd
		col := metrics.NewCollector(sim.Second)
		sys, err := Deploy(net, tree, cfg, col)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(150 * sim.Second)
		var dupP, dupS uint64
		sys.Nodes.Range(func(_ int, n *Node) bool {
			dupP += n.dupFromParent
			dupS += n.dupFromPeer
			return true
		})
		fmt.Printf("fd=%v useful=%.0f dup=%.3f dupParent=%d dupPeer=%d\n",
			fd.ToSeconds(),
			col.MeanOver(70*sim.Second, 150*sim.Second, metrics.Useful),
			col.DuplicateRatio(), dupP, dupS)
	}
}
