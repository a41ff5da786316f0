package bullet

// The Protocol/Deployment API: one uniform way to deploy any protocol
// in this repository into a World and drive it at runtime.
//
// A Protocol is anything deployable — Bullet itself, the plain tree
// streamer, push gossip, streaming + anti-entropy — and each ships as
// a small config struct implementing the interface ("bullet",
// "streamer", "gossip", "anti-entropy"). A Deployment is the runtime
// handle every deploy returns: metrics, per-node introspection,
// teardown, and membership churn. Each built-in protocol's deployed
// system is its own Deployment, through the member.Roster it embeds.
// Crash, Restart, and Join compose with link dynamics through
// scenarios:
//
//	w, _ := bullet.NewWorld(bullet.WorldConfig{Seed: 1})
//	tree, _ := w.RandomTree(5)
//	d, _ := w.Deploy(bullet.BulletProtocol{Config: bullet.DefaultConfig(600)}, tree)
//	w.Scenario(bullet.NewScenario().
//	    At(60*bullet.Second, bullet.CrashNode(tree.Participants[7])).
//	    At(90*bullet.Second, bullet.RestartNode(tree.Participants[7])))
//	w.Run(150 * bullet.Second)
//	fmt.Println(d.Collector().MeanOver(100*bullet.Second, 150*bullet.Second, bullet.Useful))

import (
	"fmt"

	"bullet/internal/adversary"
	"bullet/internal/core"
	"bullet/internal/epidemic"
	"bullet/internal/metrics"
	"bullet/internal/scenario"
	"bullet/internal/streamer"
)

// Protocol is anything deployable into a World over a distribution
// tree. Implementations are value-ish config holders; Deploy wires the
// protocol into the world's emulator and returns its runtime handle.
// Deploy through World.Deploy (which tracks the deployment so
// scenarios can reach it), not by calling this method directly.
type Protocol interface {
	// Name identifies the protocol (Deployment.Protocol).
	Name() string
	// Deploy instantiates the protocol over tree in w. Protocols that
	// need no tree (gossip) accept nil; tree-based protocols reject it.
	Deploy(w *World, tree *Tree) (Deployment, error)
}

// Deployment is the uniform runtime handle a deploy returns.
type Deployment interface {
	// Protocol returns the deploying protocol's name.
	Protocol() string
	// Collector returns the deployment's metrics sink.
	Collector() *Collector
	// Workload returns the source driving packet generation: the one
	// configured on the protocol, or the default CBR stream. Finite
	// workloads (File) additionally arm the collector's per-node
	// completion tracking (Collector.CompletionCDF).
	Workload() Workload
	// Tree returns the distribution tree (shared, live — membership
	// changes mutate it), or nil for mesh-only protocols like gossip.
	Tree() *Tree
	// Nodes returns the ids of live participants in sorted order.
	Nodes() []int
	// Live reports whether node is a current, non-crashed participant.
	Live(node int) bool
	// MemberEpoch counts membership changes (crashes, restarts, joins)
	// applied so far.
	MemberEpoch() int
	// Crash fails node mid-run. Recovery is protocol-defined: Bullet
	// re-parents the orphans after its failover delay and re-installs
	// Bloom filters at live peers; the plain streamer's subtree simply
	// starves. The source (tree root) cannot crash.
	Crash(node int) error
	// Restart brings a crashed node back.
	Restart(node int) error
	// Join admits a brand-new participant at the protocol's
	// deterministic join point.
	Join(node int) error
	// Colluders returns the ids compromised by the deployment's
	// adversary fleet in ascending order (nil without WithAdversary).
	// Filter these out with MinKbpsOverNodes/honest-subset metrics to
	// measure the goodput honest participants actually see.
	Colluders() []int
	// Stop tears the deployment down; the world keeps running.
	Stop()
}

// The four built-in systems are Deployments as they are.
var (
	_ Deployment = (*core.System)(nil)
	_ Deployment = (*streamer.System)(nil)
	_ Deployment = (*epidemic.GossipSystem)(nil)
	_ Deployment = (*epidemic.AntiEntropySystem)(nil)
)

// DeployOption configures a single World.Deploy call.
type DeployOption func(*deployOptions)

type deployOptions struct {
	adv Adversary
}

// WithAdversary deploys the protocol with a seeded hostile-peer fleet
// attached: a pure-function-of-(seed, model, scale) subset of the
// participants is compromised at deploy time, but behaves honestly
// until a scenario's AdversaryAt action strikes. See bullet.Adversary
// for the models; Deploy refuses a model that is none of them.
func WithAdversary(a Adversary) DeployOption {
	return func(o *deployOptions) { o.adv = a }
}

// Deploy instantiates p over tree and registers the deployment with
// this world, so scenario membership actions (CrashNode, RestartNode,
// JoinNode, ChurnNodes) and adversary actions (CompromiseNodes,
// AdversaryAt) reach it. This is the one generic entry point every
// protocol deploys through.
func (w *World) Deploy(p Protocol, tree *Tree, opts ...DeployOption) (Deployment, error) {
	var o deployOptions
	for _, opt := range opts {
		opt(&o)
	}
	d, err := p.Deploy(w, tree)
	if err != nil {
		return nil, err
	}
	if o.adv.Model != AdvNone {
		if err := attachAdversary(w, d, tree, o.adv); err != nil {
			// p.Deploy already wired the system into the emulator, and
			// the caller gets no handle to stop it with.
			d.Stop()
			return nil, err
		}
	}
	w.deployments = append(w.deployments, d)
	return d, nil
}

// attachAdversary builds the seeded fleet over the deployment's
// participant set and hands it to the protocol system's hooks.
func attachAdversary(w *World, d Deployment, tree *Tree, cfg Adversary) error {
	if !cfg.Model.Known() {
		return fmt.Errorf("bullet: unknown adversary model %v", cfg.Model)
	}
	sys, ok := d.(interface{ SetAdversary(*adversary.Fleet) })
	if !ok {
		return fmt.Errorf("bullet: deployment %q does not support adversaries", d.Protocol())
	}
	participants, root := w.g.Clients, w.g.Clients[0]
	if tree != nil {
		participants, root = tree.Participants, tree.Root
	}
	sys.SetAdversary(adversary.New(cfg, participants, root, w.eng.Seed()))
	return nil
}

// Deployments returns the deployments tracked by this world, in deploy
// order.
func (w *World) Deployments() []Deployment {
	return append([]Deployment(nil), w.deployments...)
}

// Crash forwards to every deployment in this world (scenario
// CrashNode actions land here). It succeeds if any deployment accepted
// the operation; with no deployments it reports an error.
func (w *World) Crash(node int) error {
	return w.forEachDeployment("crash", func(d Deployment) error { return d.Crash(node) })
}

// Restart forwards to every deployment in this world.
func (w *World) Restart(node int) error {
	return w.forEachDeployment("restart", func(d Deployment) error { return d.Restart(node) })
}

// Join forwards to every deployment in this world.
func (w *World) Join(node int) error {
	return w.forEachDeployment("join", func(d Deployment) error { return d.Join(node) })
}

// Compromise forwards to every deployment with an attached adversary
// fleet (scenario CompromiseNodes actions land here). Deployments
// without one ignore it.
func (w *World) Compromise(nodes []int) {
	for _, d := range w.deployments {
		if a, ok := d.(scenario.Adversary); ok {
			a.Compromise(nodes)
		}
	}
}

// Strike fires every attached adversary fleet (scenario AdversaryAt
// actions land here).
func (w *World) Strike() {
	for _, d := range w.deployments {
		if a, ok := d.(scenario.Adversary); ok {
			a.Strike()
		}
	}
}

func (w *World) forEachDeployment(op string, fn func(Deployment) error) error {
	if len(w.deployments) == 0 {
		return fmt.Errorf("bullet: %s: the world has no deployment", op)
	}
	var firstErr error
	ok := false
	for _, d := range w.deployments {
		if err := fn(d); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			ok = true
		}
	}
	if ok {
		return nil
	}
	return firstErr
}

// ---------------------------------------------------------------------
// Built-in protocol implementations
// ---------------------------------------------------------------------

// deployed hands a fresh system to the caller as its Deployment, or
// the error: a nil system must not become a non-nil interface.
func deployed[S Deployment](sys S, err error) (Deployment, error) {
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// BulletProtocol deploys Bullet itself (the §3 mesh) with the given
// core configuration.
type BulletProtocol struct{ Config Config }

// Name implements Protocol.
func (BulletProtocol) Name() string { return "bullet" }

// Deploy implements Protocol.
func (p BulletProtocol) Deploy(w *World, tree *Tree) (Deployment, error) {
	return deployed(core.Deploy(w.net, tree, p.Config, metrics.NewCollector(Second)))
}

// StreamerProtocol deploys the plain tree-streaming baseline (§4.2).
// The Config passes through verbatim.
type StreamerProtocol struct{ Config StreamConfig }

// Name implements Protocol.
func (StreamerProtocol) Name() string { return "streamer" }

// Deploy implements Protocol.
func (p StreamerProtocol) Deploy(w *World, tree *Tree) (Deployment, error) {
	return deployed(streamer.Deploy(w.net, tree, p.Config, metrics.NewCollector(Second)))
}

// GossipProtocol deploys the push-gossip baseline (§4.4). It needs no
// tree: passing one only selects the source (the tree root); with a
// nil tree the first world participant is the source.
type GossipProtocol struct{ Config StreamConfig }

// Name implements Protocol.
func (GossipProtocol) Name() string { return "gossip" }

// Deploy implements Protocol.
func (p GossipProtocol) Deploy(w *World, tree *Tree) (Deployment, error) {
	source := w.g.Clients[0]
	if tree != nil {
		source = tree.Root
	}
	return deployed(epidemic.DeployGossip(w.net, w.g.Clients, source, p.Config, metrics.NewCollector(Second)))
}

// AntiEntropyProtocol deploys streaming + anti-entropy recovery
// (§4.4) with the paper's 20 s epoch.
type AntiEntropyProtocol struct{ Config StreamConfig }

// Name implements Protocol.
func (AntiEntropyProtocol) Name() string { return "anti-entropy" }

// Deploy implements Protocol.
func (p AntiEntropyProtocol) Deploy(w *World, tree *Tree) (Deployment, error) {
	return deployed(epidemic.DeployAntiEntropy(w.net, tree, p.Config, metrics.NewCollector(Second)))
}
