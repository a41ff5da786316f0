package experiments

import (
	"bullet/internal/adversary"
	"bullet/internal/core"
	"bullet/internal/epidemic"
	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/scenario"
	"bullet/internal/sim"
	"bullet/internal/streamer"
	"bullet/internal/topology"
	"bullet/internal/workload"
)

// system is what an arm deploys: the membership and adversary surfaces
// scenarios act on, plus the hooks reports and before-hooks use. All
// four protocol systems satisfy it through their member.Roster.
type system interface {
	scenario.Membership
	scenario.Adversary
	Nodes() []int
	Fail(node int)
	SetAdversary(f *adversary.Fleet)
}

// arm is one curve of a figure: a (world, tree, protocol) combination.
// The zero value of every field but deploy is Figure 7's: the generated
// medium-bandwidth lossless topology at the scale's size, and the
// seeded random tree over all its clients.
type arm struct {
	label string
	bw    topology.BandwidthProfile
	loss  topology.LossProfile
	// graph, when set, replaces the generated topology (bw and loss are
	// then unused). Its first client is the source.
	graph  func(seed int64) (*topology.Graph, error)
	tree   func(w *world) (*overlay.Tree, error)
	deploy func(r *armRun) (system, error)
	// before runs on the deployed system ahead of the event loop: the
	// place to install a schedule or any other timed disturbance.
	before func(r *armRun)
}

// armRun is a finished arm: what reports read their numbers from.
type armRun struct {
	label string
	w     *world
	tree  *overlay.Tree // nil under noTree
	col   *metrics.Collector
	sys   system
}

// run builds the arm's world and tree, deploys its protocol with a
// one-second collector, lets before arm the disturbance, and runs the
// world to sc.RunUntil. This is the only place an experiment world is
// deployed and run.
func (a arm) run(sc Scale, seed int64) (*armRun, error) {
	var g *topology.Graph
	var err error
	if a.graph != nil {
		g, err = a.graph(seed)
	} else {
		bw := a.bw
		if bw.Name == "" {
			bw = topology.MediumBandwidth
		}
		g, err = generate(sc, bw, a.loss, seed)
	}
	if err != nil {
		return nil, err
	}
	w := worldOn(g, sc, seed)
	r := &armRun{label: a.label, w: w, col: metrics.NewCollector(sim.Second)}
	if a.tree != nil {
		r.tree, err = a.tree(w)
	} else {
		r.tree, err = w.randomTree(w.g.Clients)
	}
	if err != nil {
		return nil, err
	}
	if r.sys, err = a.deploy(r); err != nil {
		return nil, err
	}
	if a.before != nil {
		a.before(r)
	}
	w.run(sc.RunUntil)
	return r, nil
}

// install arms a scenario schedule against the run's world and system.
func (r *armRun) install(s *scenario.Schedule) {
	s.Install(&scenario.Env{Eng: r.w.eng, G: r.w.g, M: r.sys, A: r.sys})
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

// bottleneckTree is the offline bottleneck-bandwidth tree of §4.2.
func bottleneckTree(w *world) (*overlay.Tree, error) {
	return overlay.Bottleneck(w.rt, w.g.Clients, w.g.Clients[0], 1500, 0)
}

// noTree is for protocols that need none (gossip): the source is the
// first client, the node every tree is rooted at.
func noTree(*world) (*overlay.Tree, error) { return nil, nil }

// streamConfig is the stream the baseline arms (streamer, gossip,
// anti-entropy) deploy.
func streamConfig(sc Scale, rateKbps float64) workload.Stream {
	return workload.Stream{RateKbps: rateKbps, PacketSize: 1500, Start: sc.Start, Duration: sc.Duration}
}

func bulletOn(cfg core.Config) func(r *armRun) (system, error) {
	return func(r *armRun) (system, error) { return core.Deploy(r.w.net, r.tree, cfg, r.col) }
}

func streamOn(cfg workload.Stream) func(r *armRun) (system, error) {
	return func(r *armRun) (system, error) { return streamer.Deploy(r.w.net, r.tree, cfg, r.col) }
}

func gossipOn(cfg workload.Stream) func(r *armRun) (system, error) {
	return func(r *armRun) (system, error) {
		return epidemic.DeployGossip(r.w.net, r.w.g.Clients, r.w.g.Clients[0], cfg, r.col)
	}
}

func antiEntropyOn(cfg workload.Stream) func(r *armRun) (system, error) {
	return func(r *armRun) (system, error) { return epidemic.DeployAntiEntropy(r.w.net, r.tree, cfg, r.col) }
}
