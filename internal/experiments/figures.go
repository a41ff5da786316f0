package experiments

import (
	"fmt"

	"bullet"
	"bullet/internal/core"
	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// Table1 reports the bandwidth ranges of the paper's Table 1 and
// verifies them against a sampled generated topology.
func Table1(sc Scale, seed int64) (*Result, error) {
	r := newResult("Table 1: bandwidth ranges for link types (Kbps)")
	for _, p := range []topology.BandwidthProfile{topology.LowBandwidth, topology.MediumBandwidth, topology.HighBandwidth} {
		for _, cls := range []topology.LinkClass{topology.ClientStub, topology.StubStub, topology.TransitStub, topology.TransitTransit} {
			rg := p.Ranges[cls]
			r.Notes = append(r.Notes, fmt.Sprintf("%s / %s: %g-%g", p.Name, cls, rg.Lo, rg.Hi))
		}
	}
	cfg := topology.Sized(sc.TopoNodes, sc.Clients, topology.MediumBandwidth)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		return nil, err
	}
	r.Summary["generated.nodes"] = float64(len(g.Nodes))
	r.Summary["generated.links"] = float64(len(g.Links))
	r.Summary["generated.clients"] = float64(len(g.Clients))
	for cls, c := range g.LinkClassCounts() {
		r.Summary["links."+cls.String()] = float64(c)
	}
	return r, nil
}

// Fig06 reproduces Figure 6: TFRC streaming of 600 Kbps over the
// offline bottleneck bandwidth tree versus a random tree (medium
// bandwidth topology).
func Fig06(sc Scale, seed int64) (*Result, error) {
	r := newResult("Figure 6: streaming over bottleneck vs random tree")
	stream := bullet.StreamerProtocol{Config: streamConfig(sc, defaultRateKbps)}
	err := runArms(sc, seed, usefulSeries(r),
		arm{label: "bottleneck_tree", tree: (*bullet.World).BottleneckTree, proto: stream},
		arm{label: "random_tree", proto: stream})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// fig7Run executes the Figure 7 configuration (Bullet over a random
// tree, medium bandwidth) with mutate applied to the Bullet config: the
// all-defaults arm. Its deployment is a *core.System.
func fig7Run(sc Scale, seed int64, mutate func(*core.Config)) (*armRun, error) {
	cfg := bulletConfig(sc, defaultRateKbps)
	if mutate != nil {
		mutate(&cfg)
	}
	return arm{proto: bullet.BulletProtocol{Config: cfg}}.run(sc, seed)
}

// Fig07 reproduces Figure 7: Bullet over a random tree — raw total,
// useful total, and from-parent bandwidth over time, plus the in-text
// summaries (≈30 Kbps control overhead, link stress ≈1.5 avg / 22 max,
// <10% duplicates).
func Fig07(sc Scale, seed int64) (*Result, error) {
	run, err := fig7Run(sc, seed, nil)
	if err != nil {
		return nil, err
	}
	col, sys := run.col, run.d.(*core.System)
	r := newResult("Figure 7: Bullet over a random tree")
	r.addSeries("raw_total", col.Series(metrics.Raw))
	r.addSeries("useful_total", col.Series(metrics.Useful))
	r.addSeries("from_parent", col.Series(metrics.Parent))
	r.Summary["control_overhead_kbps"] = sys.ControlOverheadKbps()
	r.Summary["duplicate_ratio"] = col.DuplicateRatio()
	avg, max := run.w.Network().LinkStress()
	r.Summary["link_stress_avg"] = avg
	r.Summary["link_stress_max"] = float64(max)
	r.Summary["mean_senders"] = sys.MeanSenders()
	return r, nil
}

// Fig08 reproduces Figure 8: the CDF of instantaneous per-node
// bandwidth late in the Figure 7 run (the paper samples t=430 s of a
// 500 s run; at other scales the same 0.8 fraction of the run is used).
func Fig08(sc Scale, seed int64) (*Result, error) {
	run, err := fig7Run(sc, seed, nil)
	if err != nil {
		return nil, err
	}
	r := newResult("Figure 8: CDF of instantaneous achieved bandwidth")
	at := sc.Start + sim.Duration(0.8*float64(sc.Duration))
	r.CDF = run.col.CDFAt(at, metrics.Useful)
	r.Summary["sample_time_s"] = at.ToSeconds()
	return r, nil
}

// Fig09 reproduces Figure 9: Bullet versus the bottleneck bandwidth
// tree across low, medium and high bandwidth topologies.
func Fig09(sc Scale, seed int64) (*Result, error) {
	return bulletVsTree(sc, seed, topology.NoLoss, "Figure 9: Bullet vs bottleneck tree (lossless)")
}

// Fig12 reproduces Figure 12: the same comparison on lossy topologies
// (§4.5 loss model).
func Fig12(sc Scale, seed int64) (*Result, error) {
	return bulletVsTree(sc, seed, topology.PaperLoss, "Figure 12: Bullet vs bottleneck tree (lossy)")
}

func bulletVsTree(sc Scale, seed int64, loss topology.LossProfile, name string) (*Result, error) {
	r := newResult(name)
	var arms []arm
	for _, bw := range []topology.BandwidthProfile{topology.HighBandwidth, topology.MediumBandwidth, topology.LowBandwidth} {
		arms = append(arms,
			arm{label: "bullet_" + bw.Name, bw: bw, loss: loss,
				proto: bullet.BulletProtocol{Config: bulletConfig(sc, defaultRateKbps)}},
			arm{label: "bottleneck_tree_" + bw.Name, bw: bw, loss: loss, tree: (*bullet.World).BottleneckTree,
				proto: bullet.StreamerProtocol{Config: streamConfig(sc, defaultRateKbps)}})
	}
	if err := runArms(sc, seed, usefulSeries(r), arms...); err != nil {
		return nil, err
	}
	return r, nil
}

// Fig10 reproduces Figure 10: Bullet with the disjoint transmission
// strategy disabled (parents attempt to send everything to every
// child). Compare with Figure 7; the paper reports ≈25% lower useful
// bandwidth.
func Fig10(sc Scale, seed int64) (*Result, error) {
	run, err := fig7Run(sc, seed, func(c *core.Config) { c.DisjointSend = false })
	if err != nil {
		return nil, err
	}
	col, sys := run.col, run.d.(*core.System)
	r := newResult("Figure 10: non-disjoint transmission ablation")
	r.addSeries("raw_total", col.Series(metrics.Raw))
	r.addSeries("useful_total", col.Series(metrics.Useful))
	r.addSeries("from_parent", col.Series(metrics.Parent))
	r.Summary["duplicate_ratio"] = col.DuplicateRatio()
	r.Summary["mean_senders"] = sys.MeanSenders()
	return r, nil
}

// Fig11 reproduces Figure 11: Bullet versus push gossiping and
// streaming with anti-entropy recovery. The paper uses a 5000-node
// topology with 100 participants, a 900 Kbps source, and no physical
// link losses; scales below the paper's shrink both proportionally.
func Fig11(sc Scale, seed int64) (*Result, error) {
	fsc := sc
	if fsc.TopoNodes > 5000 {
		fsc.TopoNodes = 5000
	}
	if fsc.Clients > 100 {
		fsc.Clients = 100
	}
	const rate = 900
	r := newResult("Figure 11: Bullet vs epidemic approaches")
	err := runArms(fsc, seed,
		func(v *armRun) {
			r.addSeries(v.label+"_raw", v.col.Series(metrics.Raw))
			r.addSeries(v.label+"_useful", v.col.Series(metrics.Useful))
		},
		arm{label: "bullet", proto: bullet.BulletProtocol{Config: bulletConfig(fsc, rate)}},
		arm{label: "gossip", tree: noTree, proto: bullet.GossipProtocol{Config: streamConfig(fsc, rate)}},
		arm{label: "antientropy", tree: (*bullet.World).BottleneckTree,
			proto: bullet.AntiEntropyProtocol{Config: streamConfig(fsc, rate)}})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// failureRun executes the Figures 13/14 configuration: Bullet over a
// random tree; at half the stream duration, the root child with the
// most descendants fails (the paper's worst single failure: 110 of
// 1000 descendants).
func failureRun(sc Scale, seed int64, detection bool) (*Result, error) {
	cfg := bulletConfig(sc, defaultRateKbps)
	cfg.RanSub.FailureDetection = detection
	failAt := sc.Start + sc.Duration/2
	var best int
	// Fail, not Crash: the node goes silent with no membership bookkeeping.
	silentFailure := func(v *armRun) {
		var victim int
		if victim, best = v.tree.HeaviestChild(v.tree.Root); victim >= 0 {
			sys := v.d.(*core.System)
			v.w.At(failAt, func() { sys.Fail(victim) })
		}
	}
	run, err := arm{proto: bullet.BulletProtocol{Config: cfg}, before: silentFailure}.run(sc, seed)
	if err != nil {
		return nil, err
	}
	col := run.col
	name := "Figure 13: worst-case failure, no RanSub recovery"
	if detection {
		name = "Figure 14: worst-case failure, RanSub recovery enabled"
	}
	r := newResult(name)
	r.addSeries("bandwidth_received", col.Series(metrics.Raw))
	r.addSeries("useful_total", col.Series(metrics.Useful))
	r.addSeries("from_parent", col.Series(metrics.Parent))
	r.Summary["failed_node_descendants"] = float64(best)
	r.Summary["fail_time_s"] = failAt.ToSeconds()
	pre := col.MeanOver(failAt-30*sim.Second, failAt, metrics.Useful)
	post := col.MeanOver(failAt+20*sim.Second, sc.RunUntil, metrics.Useful)
	r.Summary["useful_before_kbps"] = pre
	r.Summary["useful_after_kbps"] = post
	return r, nil
}

// Fig13 reproduces Figure 13 (failure with RanSub recovery disabled).
func Fig13(sc Scale, seed int64) (*Result, error) { return failureRun(sc, seed, false) }

// Fig14 reproduces Figure 14 (failure with RanSub recovery enabled).
func Fig14(sc Scale, seed int64) (*Result, error) { return failureRun(sc, seed, true) }

// OvercastComparison reproduces the §4.2 in-text claim: dynamically
// constructed Overcast-like trees never achieved more than ~75% of the
// offline bottleneck algorithm's bandwidth.
func OvercastComparison(sc Scale, seed int64) (*Result, error) {
	r := newResult("Overcast-like online tree vs offline bottleneck tree")
	var ratios []float64
	for i := int64(0); i < 3; i++ {
		w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: sc.TopoNodes, Clients: sc.Clients, Seed: seed + i})
		if err != nil {
			return nil, err
		}
		ombt, err := w.BottleneckTree()
		if err != nil {
			return nil, err
		}
		oc, err := w.OvercastTree(sc.TreeDegree)
		if err != nil {
			return nil, err
		}
		a := overlay.BottleneckRate(w.Router(), ombt, 1500)
		b := overlay.BottleneckRate(w.Router(), oc, 1500)
		if a > 0 {
			ratios = append(ratios, b/a)
		}
	}
	var sum float64
	for _, x := range ratios {
		sum += x
	}
	r.Summary["overcast_to_offline_ratio"] = sum / float64(len(ratios))
	r.Summary["trials"] = float64(len(ratios))
	return r, nil
}
