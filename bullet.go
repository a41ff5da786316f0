// Package bullet is the public API of this repository: a from-scratch
// reproduction of "Bullet: High Bandwidth Data Dissemination Using an
// Overlay Mesh" (Kostić, Rodriguez, Albrecht, Vahdat — SOSP 2003).
//
// Bullet layers a high-bandwidth recovery mesh over an arbitrary
// overlay distribution tree: parents deliberately send disjoint data
// subsets to their children (Figure 5 of the paper), RanSub
// periodically delivers uniformly random subsets of global state so
// nodes can locate peers with divergent content (compared via min-wise
// summary tickets), and receivers install Bloom filters at several
// peers to recover disjoint rows of the sequence space in parallel
// over TCP-friendly (TFRC) flows.
//
// Everything runs inside a deterministic packet-level network emulator
// (the stand-in for the paper's ModelNet testbed), so a run is a pure
// function of its configuration and seed.
//
// Any protocol deploys the same way, by constructing its Protocol
// struct and passing it to World.Deploy (see its Example). The
// Deployment handle supports runtime membership churn —
// d.Crash(node), d.Restart(node), d.Join(node) — which also composes
// with link dynamics through scenarios (CrashNode, RestartNode,
// JoinNode, ChurnNodes actions). The package Examples are runnable
// programs. cmd/bullet-sim regenerates every table and figure of the
// paper; each curve it plots is a World built, deployed into and run
// through this package.
package bullet

import (
	"fmt"
	"math/rand"

	"bullet/internal/adversary"
	"bullet/internal/core"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/scenario"
	"bullet/internal/sim"
	"bullet/internal/topology"
	"bullet/internal/workload"
)

// Re-exported core types. The aliases make the whole system usable
// through this single package.
type (
	// Config configures a Bullet deployment (see core.Config).
	Config = core.Config
	// System is a deployed Bullet overlay.
	System = core.System
	// Tree is a rooted overlay distribution tree.
	Tree = overlay.Tree
	// Collector accumulates per-node bandwidth measurements.
	Collector = metrics.Collector
	// Kind selects a measurement category (Useful, Raw, Parent, Duplicate).
	Kind = metrics.Kind
	// Time is a virtual timestamp; Duration a virtual time span.
	Time = sim.Time
	// Duration is a virtual time span in nanoseconds.
	Duration = sim.Duration
	// Graph is a generated physical topology.
	Graph = topology.Graph
	// Router answers fixed shortest-path queries over a Graph.
	Router = topology.Router
	// Network is the packet-level emulator.
	Network = netem.Network
	// BandwidthProfile selects Table 1 link bandwidth ranges.
	BandwidthProfile = topology.BandwidthProfile
	// LossProfile configures random link loss (§4.5).
	LossProfile = topology.LossProfile
	// StreamConfig configures a source's stream: the whole config of
	// plain tree streaming (the §4.2 baseline), push gossip and
	// streaming + anti-entropy (§4.4).
	StreamConfig = workload.Stream
	// Adversary configures a seeded hostile-peer fleet for a
	// deployment (see WithAdversary): Model picks the attack, which
	// compromises (cutvertex: crashes) a quarter of the non-root
	// participants. The compromised set and every hostile decision are
	// pure functions of (world seed, model, scale), drawn from a
	// dedicated counter-hash stream — never from the engine RNGs other
	// components use.
	Adversary = adversary.Config
	// AdversaryModel selects a hostile-peer behavior (AdvFreeride,
	// AdvLiar, AdvCutvertex, AdvJoinstorm, AdvBallotstuff).
	AdversaryModel = adversary.Model
	// Scenario is a declarative schedule of timed network events
	// (failures, bandwidth shifts, partitions); see NewScenario.
	Scenario = scenario.Schedule
	// ScenarioAction is one atomic network mutation in a Scenario.
	ScenarioAction = scenario.Action
	// ScenarioEnv is what scenario actions act upon.
	ScenarioEnv = scenario.Env

	// Workload is a packet-generation source: it owns which sequence
	// numbers exist, how large they are, and when they are emitted.
	// Every protocol config carries a Workload field (nil = CBR).
	Workload = workload.Source
	// CBRWorkload streams fixed-size packets at a constant bit rate —
	// the default workload of every protocol.
	CBRWorkload = workload.CBR
	// VBRWorkload alternates deterministically between a high and a
	// low bit rate on a fixed period (bursty streaming).
	VBRWorkload = workload.VBR
	// FileWorkload is the finite fountain-coded file-distribution
	// workload of §2.1: sequence numbers double as encoded-symbol IDs
	// and a node completes at (1+ε)·K distinct receipts, recorded by
	// Collector.CompletionCDF.
	FileWorkload = workload.File
)

// Measurement kinds.
const (
	Useful    = metrics.Useful
	Raw       = metrics.Raw
	Parent    = metrics.Parent
	Duplicate = metrics.Duplicate
)

// Time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Adversary models (see the Adversary config and WithAdversary).
const (
	// AdvNone disables the adversary layer (the Adversary zero value).
	AdvNone = adversary.None
	// AdvFreeride receives data but never relays to children nor
	// serves mesh/recovery requests.
	AdvFreeride = adversary.Freeride
	// AdvLiar advertises summary tickets for blocks it does not hold,
	// poisoning min-resemblance sender selection, and serves nothing.
	AdvLiar = adversary.Liar
	// AdvCutvertex crashes the live tree's heaviest cut vertices at
	// strike time to maximize orphaned subtree mass.
	AdvCutvertex = adversary.Cutvertex
	// AdvJoinstorm drives seeded flash crowds of leave/rejoin
	// oscillation through the membership API.
	AdvJoinstorm = adversary.Joinstorm
	// AdvBallotstuff stuffs RanSub collect ballots so random subsets
	// are biased toward colluders, which then refuse to serve.
	AdvBallotstuff = adversary.Ballotstuff
)

// Bandwidth profiles of Table 1.
var (
	LowBandwidth    = topology.LowBandwidth
	MediumBandwidth = topology.MediumBandwidth
	HighBandwidth   = topology.HighBandwidth
	// PaperLoss is the §4.5 lossy-network profile.
	PaperLoss = topology.PaperLoss
	// NoLoss disables random link loss.
	NoLoss = topology.NoLoss
)

// DefaultConfig returns the paper's Bullet parameters for a target
// streaming rate in Kbps.
func DefaultConfig(rateKbps float64) Config { return core.DefaultConfig(rateKbps) }

// WorldConfig sizes an emulated world.
type WorldConfig struct {
	// TotalNodes is the approximate physical topology size.
	TotalNodes int
	// Clients is the number of overlay participants.
	Clients int
	// Bandwidth selects the Table 1 profile (default medium).
	Bandwidth BandwidthProfile
	// Loss selects the link loss model (default none).
	Loss LossProfile
	// Seed makes the whole world (topology, emulation, protocols)
	// deterministic.
	Seed int64
	// Shards requests single-run parallel simulation: the topology is
	// partitioned into up to Shards shards (whole stub domains), each
	// simulated on its own goroutine with conservative barrier
	// synchronization. 0 or 1 runs serially. Any value produces traces
	// and metrics byte-identical to the serial run — sharding is purely
	// an execution-speed knob. The effective count may be lower than
	// requested (World.Shards reports it). netem.AutoShardCount (-1)
	// lets topology.AutoShards pick the count from the topology's load
	// and the machine's core count.
	Shards int
}

// World bundles an emulated network: engine, topology, router, netem.
type World struct {
	eng *sim.Engine
	g   *topology.Graph
	rt  *topology.Router
	net *netem.Network

	// deployments tracks every Deployment created through Deploy, so
	// scenario membership actions reach them (see World.Crash).
	deployments []Deployment
}

// NewWorld generates a topology and wraps it in a fresh emulator
// (see NewWorldOn).
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.TotalNodes < 0 {
		return nil, fmt.Errorf("bullet: negative TotalNodes %d", cfg.TotalNodes)
	}
	if cfg.Clients < 0 {
		return nil, fmt.Errorf("bullet: negative Clients %d", cfg.Clients)
	}
	if cfg.TotalNodes == 0 {
		cfg.TotalNodes = 1500
	}
	if cfg.Clients == 0 {
		cfg.Clients = 40
	}
	if cfg.Bandwidth.Name == "" {
		cfg.Bandwidth = topology.MediumBandwidth
	}
	tc := topology.Sized(cfg.TotalNodes, cfg.Clients, cfg.Bandwidth)
	tc.Loss = cfg.Loss
	tc.Seed = cfg.Seed
	g, err := topology.Generate(tc)
	if err != nil {
		return nil, err
	}
	return NewWorldOn(g, cfg.Seed, cfg.Shards), nil
}

// NewWorldOn wraps an existing topology (a generated one, or one put
// together with a topology builder) in a fresh engine, router and
// emulator seeded by seed and run on up to shards shards
// (WorldConfig.Shards). Its first client is where every tree is rooted.
func NewWorldOn(g *Graph, seed int64, shards int) *World {
	eng := sim.NewEngine(seed)
	rt := topology.NewRouter(g)
	net := netem.New(eng, g, rt, netem.Config{})
	net.EnableShards(shards)
	return &World{eng: eng, g: g, rt: rt, net: net}
}

// Graph returns the generated topology.
func (w *World) Graph() *Graph { return w.g }

// Router returns the route oracle.
func (w *World) Router() *Router { return w.rt }

// Network returns the emulator.
func (w *World) Network() *Network { return w.net }

// Participants returns the overlay attachment nodes.
func (w *World) Participants() []int { return w.g.Clients }

// Now returns the current virtual time.
func (w *World) Now() Time { return w.eng.Now() }

// Shards returns the effective shard count the world executes with
// (1 = serial).
func (w *World) Shards() int { return w.net.Shards() }

// Run advances virtual time to `until`, serially or across the world's
// shards (WorldConfig.Shards). The trace is identical either way.
func (w *World) Run(until Time) { w.net.Run(until) }

// At schedules fn at virtual time t (e.g. to inject a failure).
func (w *World) At(t Time, fn func()) { w.eng.Schedule(t, fn) }

// Scenario installs a schedule of timed network and membership events
// (link failures, bandwidth shifts, partitions, ramps, oscillations,
// node crashes/restarts/joins) into this world. Events fire
// deterministically at their scheduled virtual times during Run; an
// empty scenario leaves the run byte-identical to one without.
// Membership actions act on the deployments created through Deploy
// before the event fires.
//
//	s := bullet.NewScenario().
//	    At(30*bullet.Second, bullet.FailLink(lid)).
//	    At(45*bullet.Second, bullet.CrashNode(victim)).
//	    At(60*bullet.Second, bullet.RestoreLink(lid))
//	w.Scenario(s)
func (w *World) Scenario(s *Scenario) {
	s.Install(&scenario.Env{Eng: w.eng, G: w.g, M: w, A: w})
}

// NewScenario returns an empty scenario schedule. Populate it with At,
// Ramp and Oscillate, then install via World.Scenario.
func NewScenario() *Scenario { return scenario.New() }

// Scenario action constructors, re-exported from internal/scenario.

// FailLink takes a physical link down: routing avoids it and packets
// traversing it are dropped.
func FailLink(link int) ScenarioAction { return scenario.FailLink(link) }

// RestoreLink brings a failed link back up.
func RestoreLink(link int) ScenarioAction { return scenario.RestoreLink(link) }

// SetBandwidth sets a link's capacity in Kbps (per direction).
func SetBandwidth(link int, kbps float64) ScenarioAction { return scenario.SetBandwidth(link, kbps) }

// PartitionNodes cuts the node set off from the rest of the network.
func PartitionNodes(nodes ...int) ScenarioAction { return scenario.Partition(nodes...) }

// HealPartition restores every link failed by PartitionNodes.
func HealPartition() ScenarioAction { return scenario.Heal() }

// CrashNode crashes an overlay participant in every deployment of the
// world the scenario is installed into. Recovery is protocol-defined:
// Bullet re-parents the orphans and re-installs Bloom filters at live
// peers; the plain streamer's orphaned subtree starves.
func CrashNode(node int) ScenarioAction { return scenario.CrashNode(node) }

// RestartNode brings a crashed participant back.
func RestartNode(node int) ScenarioAction { return scenario.RestartNode(node) }

// JoinNode admits a brand-new participant mid-run.
func JoinNode(node int) ScenarioAction { return scenario.JoinNode(node) }

// ChurnNodes crashes the whole node set at one instant — the
// mass-failure workload.
func ChurnNodes(nodes ...int) ScenarioAction { return scenario.ChurnNodes(nodes...) }

// CompromiseNodes adds the nodes to the colluder set of every
// adversary fleet deployed in the world (see WithAdversary).
// Compromising is silent until AdversaryAt strikes.
func CompromiseNodes(nodes ...int) ScenarioAction { return scenario.CompromiseNodes(nodes...) }

// AdversaryAt fires the strike of every adversary fleet deployed in
// the world. Leeching models (AdvFreeride, AdvLiar, AdvBallotstuff)
// flip hostile and stay so; each extra AdversaryAt repeats the attack
// wave of the crash-timing models (AdvCutvertex, AdvJoinstorm).
func AdversaryAt() ScenarioAction { return scenario.AdversaryAt() }

// RandomTree builds a random degree-bounded tree over the participants
// rooted at the first participant.
func (w *World) RandomTree(maxDegree int) (*Tree, error) {
	return overlay.Random(w.g.Clients, w.g.Clients[0], maxDegree,
		rand.New(rand.NewSource(w.eng.Seed()^0x74726565)))
}

// BottleneckTree builds the paper's offline greedy bottleneck
// bandwidth tree (§4.1) from global topology knowledge.
func (w *World) BottleneckTree() (*Tree, error) {
	return overlay.Bottleneck(w.rt, w.g.Clients, w.g.Clients[0], 1500, 0)
}

// OvercastTree builds an Overcast-like online bandwidth-optimized tree.
func (w *World) OvercastTree(maxDegree int) (*Tree, error) {
	return overlay.Overcast(w.rt, w.g.Clients, w.g.Clients[0], 1500, maxDegree)
}
