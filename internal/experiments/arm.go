package experiments

import (
	"bullet"
	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/topology"
	"bullet/internal/workload"
)

// arm is one curve of a figure: a (world, tree, protocol) combination.
// The zero value of every field but proto is Figure 7's: the generated
// medium-bandwidth lossless topology at the scale's size, and the
// seeded random tree over all its clients.
type arm struct {
	label string
	bw    topology.BandwidthProfile
	loss  topology.LossProfile
	// graph, when set, replaces the generated topology (bw and loss are
	// then unused). Its first client is the source.
	graph func(seed int64) (*topology.Graph, error)
	tree  func(w *bullet.World) (*overlay.Tree, error)
	proto bullet.Protocol
	// adv, unless its model is AdvNone, is the hostile-peer fleet
	// deployed with proto; it stays dormant until a scenario strikes.
	adv bullet.Adversary
	// before runs on the deployed run ahead of the event loop: the
	// place to install a schedule or any other timed disturbance.
	before func(r *armRun)
}

// armRun is a finished arm: what reports read their numbers from.
type armRun struct {
	label string
	w     *bullet.World
	tree  *overlay.Tree // nil under noTree
	d     bullet.Deployment
	col   *metrics.Collector // d's
}

// run builds the arm's world and tree, deploys its protocol, lets
// before arm the disturbance, runs the world to sc.RunUntil and
// reports the executed-event accounting to sc.ShardStatsSink. This is
// the only place an experiment world is deployed and run.
func (a arm) run(sc Scale, seed int64) (*armRun, error) {
	var w *bullet.World
	var err error
	if a.graph != nil {
		var g *topology.Graph
		if g, err = a.graph(seed); err == nil {
			w = bullet.NewWorldOn(g, seed, sc.Shards)
		}
	} else {
		w, err = bullet.NewWorld(bullet.WorldConfig{TotalNodes: sc.TopoNodes, Clients: sc.Clients,
			Bandwidth: a.bw, Loss: a.loss, Seed: seed, Shards: sc.Shards})
	}
	if err != nil {
		return nil, err
	}
	r := &armRun{label: a.label, w: w}
	if a.tree != nil {
		r.tree, err = a.tree(w)
	} else {
		r.tree, err = w.RandomTree(sc.TreeDegree)
	}
	if err != nil {
		return nil, err
	}
	if r.d, err = w.Deploy(a.proto, r.tree, bullet.WithAdversary(a.adv)); err != nil {
		return nil, err
	}
	r.col = r.d.Collector()
	if a.before != nil {
		a.before(r)
	}
	w.Run(sc.RunUntil)
	if sc.ShardStatsSink != nil {
		sc.ShardStatsSink(w.Network().RunLoad())
	}
	return r, nil
}

// runArms runs the arms in order, each in its own world built from the
// same seed (so arms that share a topology profile see identical
// graphs, link ids and random trees), and hands every finished run to
// report before the next one starts.
func runArms(sc Scale, seed int64, report func(r *armRun), arms ...arm) error {
	for _, a := range arms {
		r, err := a.run(sc, seed)
		if err != nil {
			return err
		}
		report(r)
	}
	return nil
}

// usefulSeries is the plainest report: each arm's useful-bandwidth
// series under the arm's label.
func usefulSeries(r *Result) func(*armRun) {
	return func(v *armRun) { r.addSeries(v.label, v.col.Series(metrics.Useful)) }
}

// noTree is for protocols that need none (gossip): the source is the
// first client, the node every tree is rooted at.
func noTree(*bullet.World) (*overlay.Tree, error) { return nil, nil }

// streamConfig is the stream the baseline arms (streamer, gossip,
// anti-entropy) deploy.
func streamConfig(sc Scale, rateKbps float64) workload.Stream {
	return workload.Stream{RateKbps: rateKbps, PacketSize: 1500, Start: sc.Start, Duration: sc.Duration}
}
