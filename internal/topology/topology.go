// Package topology generates transit-stub style random network
// topologies in the spirit of the INET-generated topologies used in the
// Bullet paper, classifies links into the four classes of the paper's
// Table 1 (Client-Stub, Stub-Stub, Transit-Stub, Transit-Transit),
// assigns per-class bandwidth ranges and loss rates, and answers fixed
// shortest-path routing queries.
//
// The paper relies on three properties of its 20,000-node INET
// topologies: hierarchical transit/stub structure, degree-one client
// attachment to stub nodes, and placement-derived propagation delays.
// This generator reproduces all three deterministically from a seed.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"bullet/internal/sim"
)

// NodeKind identifies a node's role in the transit-stub hierarchy.
type NodeKind uint8

const (
	// Transit nodes form the backbone domains.
	Transit NodeKind = iota
	// Stub nodes form edge domains hanging off transit nodes.
	Stub
	// Client nodes are degree-one overlay participant attachment points.
	Client
)

func (k NodeKind) String() string {
	switch k {
	case Transit:
		return "transit"
	case Stub:
		return "stub"
	case Client:
		return "client"
	}
	return "unknown"
}

// LinkClass is the Table 1 classification of a physical link.
type LinkClass uint8

const (
	// ClientStub links connect client nodes to their stub node.
	ClientStub LinkClass = iota
	// StubStub links connect nodes within (or between) stub domains.
	StubStub
	// TransitStub links connect stub domains to the backbone.
	TransitStub
	// TransitTransit links form the backbone.
	TransitTransit
	numLinkClasses
)

func (c LinkClass) String() string {
	switch c {
	case ClientStub:
		return "Client-Stub"
	case StubStub:
		return "Stub-Stub"
	case TransitStub:
		return "Transit-Stub"
	case TransitTransit:
		return "Transit-Transit"
	}
	return "unknown"
}

// KbpsRange is an inclusive [Lo, Hi] bandwidth range in Kbps.
type KbpsRange struct {
	Lo, Hi float64
}

// BandwidthProfile gives the per-class bandwidth ranges of Table 1.
type BandwidthProfile struct {
	Name   string
	Ranges [numLinkClasses]KbpsRange
}

// The three bandwidth profiles of Table 1 (values in Kbps), relative to
// the paper's typical streaming rates of 600-1000 Kbps.
var (
	LowBandwidth = BandwidthProfile{
		Name: "low",
		Ranges: [numLinkClasses]KbpsRange{
			ClientStub:     {300, 600},
			StubStub:       {500, 1000},
			TransitStub:    {1000, 2000},
			TransitTransit: {2000, 4000},
		},
	}
	MediumBandwidth = BandwidthProfile{
		Name: "medium",
		Ranges: [numLinkClasses]KbpsRange{
			ClientStub:     {800, 2800},
			StubStub:       {1000, 4000},
			TransitStub:    {1000, 4000},
			TransitTransit: {5000, 10000},
		},
	}
	HighBandwidth = BandwidthProfile{
		Name: "high",
		Ranges: [numLinkClasses]KbpsRange{
			ClientStub:     {1600, 5600},
			StubStub:       {2000, 8000},
			TransitStub:    {2000, 8000},
			TransitTransit: {10000, 20000},
		},
	}
)

// LossProfile describes the random packet loss model of §4.5: uniform
// low loss everywhere plus a fraction of "overloaded" links with high
// loss, simulating queuing due to background traffic.
type LossProfile struct {
	// NonTransitMax is the maximum loss rate for Client-Stub and
	// Stub-Stub links; per-link rates are uniform in [0, NonTransitMax].
	NonTransitMax float64
	// TransitMax is the maximum loss rate for Transit-Stub and
	// Transit-Transit links.
	TransitMax float64
	// OverloadedFrac is the fraction of links designated overloaded.
	OverloadedFrac float64
	// Overloaded links draw their loss uniformly from [OverloadedLo, OverloadedHi].
	OverloadedLo, OverloadedHi float64
}

// NoLoss is the default lossless profile used outside §4.5.
var NoLoss = LossProfile{}

// PaperLoss is the §4.5 profile: non-transit max 0.3%, transit max
// 0.1%, 5% of links overloaded with 5-10% loss.
var PaperLoss = LossProfile{
	NonTransitMax:  0.003,
	TransitMax:     0.001,
	OverloadedFrac: 0.05,
	OverloadedLo:   0.05,
	OverloadedHi:   0.10,
}

// Node is a vertex in the physical topology.
type Node struct {
	ID   int
	Kind NodeKind
	// X, Y place the node on a plane measured in propagation
	// milliseconds; link delays derive from Euclidean distance.
	X, Y float64
}

// Link is an undirected physical link. Bandwidth is in bytes/second
// (full-duplex: each direction has the full capacity, matching ModelNet
// pipes). Loss is an independent per-packet drop probability per
// traversal. Down marks a failed link: routing ignores it and the
// emulator drops any packet that tries to traverse it.
type Link struct {
	ID       int
	A, B     int
	Class    LinkClass
	Bytes    float64      // capacity per direction, bytes/second
	Delay    sim.Duration // positive, and fixed when the graph is built
	Loss     float64
	Overload bool
	Down     bool
}

// Kbps returns the link capacity in Kbps.
func (l *Link) Kbps() float64 { return l.Bytes * 8 / 1000 }

type halfEdge struct {
	to   int32
	link int32
}

// Graph is a topology made by Generate or Builder.Build, the only two
// constructors; both check the transit-stub contract (validateHier), so
// every Graph keeps it. The node/link structure is fixed after
// construction, but per-link state (bandwidth, latency, loss, up/down) is
// mutable at runtime through the Set*/Fail*/Partition methods below, so
// scenarios can change network conditions mid-run. Every mutation that
// can alter shortest-path routes advances the route epoch, and every
// per-link mutation advances the link generation; consumers (Router,
// netem) compare them to refresh their caches lazily.
type Graph struct {
	Nodes []Node
	// Links is readable by anyone, but link state (A, B, Delay, Bytes,
	// Loss, Down) is written only inside this package: after
	// construction, only through the mutators below, since the caches
	// keyed by Epoch and LinkGen see nothing else. A source guard
	// (api_test.go) holds the rest of the module to it.
	Links   []Link
	Clients []int // IDs of client nodes, the overlay attachment points
	adj     [][]halfEdge

	epoch   uint64 // route epoch; bumped by route-affecting mutations
	linkGen uint64 // link generation; bumped by every per-link mutation
	// classEpoch counts, per link class, the route-affecting changes to
	// links of that class. The classes of a transit-stub topology are its
	// routing areas: the router compares these counters to drop only the
	// state a change can have reached (Router.invalidate).
	classEpoch   [numLinkClasses]uint64
	partitionCut []int32 // links failed by Partition, restored by Heal
}

// Config controls generation. Zero fields are filled with defaults by
// Validate; use Sized to derive a config from target node counts.
type Config struct {
	TransitDomains   int     // number of backbone domains
	TransitPerDomain int     // nodes per backbone domain
	StubDomains      int     // total stub domains (spread across transit nodes)
	StubDomainSize   int     // nodes per stub domain
	Clients          int     // client (participant attachment) nodes
	ExtraEdgeFrac    float64 // extra intra-domain edges beyond spanning tree, per node
	Bandwidth        BandwidthProfile
	Loss             LossProfile
	Seed             int64
}

// Sized returns a Config whose generated graph has approximately
// totalNodes nodes of which clients are client nodes, using the given
// bandwidth profile. It mirrors the paper's "20,000-node INET topology
// with 1000 participants" setup when called as Sized(20000, 1000, ...).
func Sized(totalNodes, clients int, bw BandwidthProfile) Config {
	if clients >= totalNodes {
		clients = totalNodes / 2
	}
	routers := totalNodes - clients
	// Backbone is ~2% of routers, at least 4 nodes.
	backbone := routers / 50
	if backbone < 4 {
		backbone = 4
	}
	domains := backbone / 8
	if domains < 1 {
		domains = 1
	}
	perDomain := (backbone + domains - 1) / domains
	stubNodes := routers - domains*perDomain
	stubSize := 12
	if stubNodes < stubSize {
		stubSize = stubNodes
		if stubSize < 1 {
			stubSize = 1
		}
	}
	stubDomains := stubNodes / stubSize
	if stubDomains < 1 {
		stubDomains = 1
	}
	return Config{
		TransitDomains:   domains,
		TransitPerDomain: perDomain,
		StubDomains:      stubDomains,
		StubDomainSize:   stubSize,
		Clients:          clients,
		ExtraEdgeFrac:    0.3,
		Bandwidth:        bw,
	}
}

// Validate fills defaults and rejects impossible configurations.
func (c *Config) Validate() error {
	if c.TransitDomains <= 0 {
		c.TransitDomains = 1
	}
	if c.TransitPerDomain <= 0 {
		c.TransitPerDomain = 4
	}
	if c.StubDomains <= 0 {
		c.StubDomains = c.TransitDomains * c.TransitPerDomain
	}
	if c.StubDomainSize <= 0 {
		c.StubDomainSize = 8
	}
	if c.Clients < 0 {
		return fmt.Errorf("topology: negative client count %d", c.Clients)
	}
	if c.ExtraEdgeFrac < 0 {
		return fmt.Errorf("topology: negative extra edge fraction %g", c.ExtraEdgeFrac)
	}
	if c.Bandwidth.Name == "" {
		c.Bandwidth = MediumBandwidth
	}
	return nil
}

// Generate builds a topology from the config. The same config (including
// Seed) always yields the same graph.
func Generate(cfg Config) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x746f706f))
	g := &Graph{}

	// Plane is 40ms x 40ms: coast-to-coast scale RTTs.
	const plane = 40.0

	// Backbone: transit domains at random centers, nodes clustered.
	type domain struct {
		cx, cy float64
		nodes  []int
	}
	transitDomains := make([]domain, cfg.TransitDomains)
	for d := range transitDomains {
		td := &transitDomains[d]
		td.cx, td.cy = rng.Float64()*plane, rng.Float64()*plane
		for i := 0; i < cfg.TransitPerDomain; i++ {
			id := len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{
				ID: id, Kind: Transit,
				X: td.cx + rng.NormFloat64()*2,
				Y: td.cy + rng.NormFloat64()*2,
			})
			td.nodes = append(td.nodes, id)
		}
	}

	addLink := func(a, b int, class LinkClass) {
		id := len(g.Links)
		g.Links = append(g.Links, Link{ID: id, A: a, B: b, Class: class})
	}

	// Intra-domain backbone: random spanning tree + extra edges.
	spanAndExtra := func(nodes []int, class LinkClass, extraFrac float64) {
		for i := 1; i < len(nodes); i++ {
			addLink(nodes[i], nodes[rng.Intn(i)], class)
		}
		extra := int(extraFrac * float64(len(nodes)))
		for i := 0; i < extra && len(nodes) >= 2; i++ {
			a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if a != b {
				addLink(a, b, class)
			}
		}
	}
	for d := range transitDomains {
		spanAndExtra(transitDomains[d].nodes, TransitTransit, cfg.ExtraEdgeFrac)
	}
	// Inter-domain backbone: ring plus one random chord per domain.
	for d := range transitDomains {
		next := transitDomains[(d+1)%len(transitDomains)]
		if len(transitDomains) > 1 {
			addLink(pick(rng, transitDomains[d].nodes), pick(rng, next.nodes), TransitTransit)
		}
		if len(transitDomains) > 2 && rng.Float64() < 0.5 {
			other := transitDomains[rng.Intn(len(transitDomains))]
			a, b := pick(rng, transitDomains[d].nodes), pick(rng, other.nodes)
			if a != b {
				addLink(a, b, TransitTransit)
			}
		}
	}

	// Stub domains: each attached to a transit node (round-robin over
	// all transit nodes so attachment is spread evenly).
	var allTransit []int
	for d := range transitDomains {
		allTransit = append(allTransit, transitDomains[d].nodes...)
	}
	var stubNodes []int
	for s := 0; s < cfg.StubDomains; s++ {
		gw := allTransit[s%len(allTransit)]
		gwNode := g.Nodes[gw]
		cx := gwNode.X + rng.NormFloat64()*1.5
		cy := gwNode.Y + rng.NormFloat64()*1.5
		var dom []int
		for i := 0; i < cfg.StubDomainSize; i++ {
			id := len(g.Nodes)
			g.Nodes = append(g.Nodes, Node{
				ID: id, Kind: Stub,
				X: cx + rng.NormFloat64()*0.5,
				Y: cy + rng.NormFloat64()*0.5,
			})
			dom = append(dom, id)
		}
		spanAndExtra(dom, StubStub, cfg.ExtraEdgeFrac)
		// Gateway link(s) to the backbone.
		addLink(dom[0], gw, TransitStub)
		if len(dom) > 4 && rng.Float64() < 0.3 {
			addLink(dom[len(dom)-1], allTransit[rng.Intn(len(allTransit))], TransitStub)
		}
		stubNodes = append(stubNodes, dom...)
	}

	// Clients: degree-one attachment to a random stub node.
	for c := 0; c < cfg.Clients; c++ {
		st := stubNodes[rng.Intn(len(stubNodes))]
		sn := g.Nodes[st]
		id := len(g.Nodes)
		g.Nodes = append(g.Nodes, Node{
			ID: id, Kind: Client,
			X: sn.X + rng.NormFloat64()*0.2,
			Y: sn.Y + rng.NormFloat64()*0.2,
		})
		g.Clients = append(g.Clients, id)
		addLink(id, st, ClientStub)
	}

	// Assign bandwidth, delay, loss.
	overloadCount := int(cfg.Loss.OverloadedFrac * float64(len(g.Links)))
	overloaded := make(map[int]bool, overloadCount)
	for len(overloaded) < overloadCount {
		overloaded[rng.Intn(len(g.Links))] = true
	}
	for i := range g.Links {
		l := &g.Links[i]
		r := cfg.Bandwidth.Ranges[l.Class]
		kbps := r.Lo + rng.Float64()*(r.Hi-r.Lo)
		l.Bytes = kbps * 1000 / 8
		a, b := g.Nodes[l.A], g.Nodes[l.B]
		distMs := math.Hypot(a.X-b.X, a.Y-b.Y)
		if distMs < 0.1 {
			distMs = 0.1
		}
		l.Delay = sim.Duration(distMs * float64(sim.Millisecond))
		switch {
		case overloaded[i]:
			l.Overload = true
			l.Loss = cfg.Loss.OverloadedLo + rng.Float64()*(cfg.Loss.OverloadedHi-cfg.Loss.OverloadedLo)
		case l.Class == ClientStub || l.Class == StubStub:
			l.Loss = rng.Float64() * cfg.Loss.NonTransitMax
		default:
			l.Loss = rng.Float64() * cfg.Loss.TransitMax
		}
	}

	g.buildAdjacency()
	if err := validateHier(g); err != nil {
		return nil, fmt.Errorf("topology: generator bug: %w", err)
	}
	return g, nil
}

func pick(rng *rand.Rand, xs []int) int { return xs[rng.Intn(len(xs))] }

func (g *Graph) buildAdjacency() {
	g.adj = make([][]halfEdge, len(g.Nodes))
	for i := range g.Links {
		l := &g.Links[i]
		g.adj[l.A] = append(g.adj[l.A], halfEdge{to: int32(l.B), link: int32(l.ID)})
		g.adj[l.B] = append(g.adj[l.B], halfEdge{to: int32(l.A), link: int32(l.ID)})
	}
}

// Neighbors calls fn for every link incident to node id.
func (g *Graph) Neighbors(id int, fn func(peer int, link *Link)) {
	for _, he := range g.adj[id] {
		fn(int(he.to), &g.Links[he.link])
	}
}

// LinkClassCounts returns the number of links in each class.
func (g *Graph) LinkClassCounts() map[LinkClass]int {
	m := make(map[LinkClass]int)
	for i := range g.Links {
		m[g.Links[i].Class]++
	}
	return m
}

// ---------------------------------------------------------------------
// Runtime network dynamics.
//
// The methods below mutate per-link state mid-run. None changes a
// link's delay: Generate and Builder fix it, so the sharded runner's
// lookahead is a constant of its plan. Mutations that can change
// shortest-path routes (link up/down) advance the route epoch so
// Router and netem caches invalidate lazily. Every one of them,
// bandwidth and loss changes included, advances the link generation,
// at which netem copies link state into its own per-link records
// before the next traversal: a change takes effect for packets
// serialized after the call.
// ---------------------------------------------------------------------

// Epoch returns the current route epoch. It advances whenever a
// mutation may have changed shortest-path routes.
func (g *Graph) Epoch() uint64 { return g.epoch }

// LinkGen returns the current link generation. It advances whenever a
// mutator changes any link's state: everything that moves the route
// epoch, plus bandwidth and loss changes, which move no route.
func (g *Graph) LinkGen() uint64 { return g.linkGen }

// AccessLink returns the ID of the single link attaching a degree-one
// node (typically a client) to the rest of the network, or -1 if the
// node's degree is not one.
func (g *Graph) AccessLink(node int) int {
	if len(g.adj[node]) != 1 {
		return -1
	}
	return int(g.adj[node][0].link)
}

// SetBandwidth changes the capacity of link id to kbps (per direction).
// It takes effect for packets serialized after the call. kbps <= 0 is
// ignored (zero capacity would make serialization time infinite); to
// take a link out of service, use FailLink.
func (g *Graph) SetBandwidth(id int, kbps float64) {
	if kbps <= 0 {
		return
	}
	g.Links[id].Bytes = kbps * 1000 / 8
	g.linkGen++
}

// SetLoss changes the per-traversal random loss probability of link id.
func (g *Graph) SetLoss(id int, loss float64) {
	if loss < 0 {
		loss = 0
	}
	if loss > 1 {
		loss = 1
	}
	g.Links[id].Loss = loss
	g.linkGen++
}

// dropFromCut removes every occurrence of link id from the partition
// cut set, so Heal will no longer touch it. Explicit FailLink and
// RestoreLink calls both claim the link's fate away from Heal; an entry
// therefore exists only while its link is down because of Partition.
func (g *Graph) dropFromCut(id int) {
	out := g.partitionCut[:0]
	for _, c := range g.partitionCut {
		if int(c) != id {
			out = append(out, c)
		}
	}
	g.partitionCut = out
}

// FailLink takes link id down: routing stops using it and the emulator
// drops packets attempting to traverse it. Idempotent. An explicit
// failure always survives Heal, even if a Partition had already cut the
// same link.
func (g *Graph) FailLink(id int) {
	g.dropFromCut(id)
	if g.Links[id].Down {
		return
	}
	g.Links[id].Down = true
	g.classEpoch[g.Links[id].Class]++
	g.epoch++
	g.linkGen++
}

// RestoreLink brings a failed link back up, whether it went down via
// FailLink or Partition. Idempotent.
func (g *Graph) RestoreLink(id int) {
	g.dropFromCut(id)
	if !g.Links[id].Down {
		return
	}
	g.Links[id].Down = false
	g.classEpoch[g.Links[id].Class]++
	g.epoch++
	g.linkGen++
}

// Partition fails every up link with exactly one endpoint in the node
// set, cutting the set off from the rest of the network. The cut links
// are remembered so Heal can restore them (links that were already down
// are left alone). It returns the number of links cut. Repeated calls
// accumulate into the same cut set.
func (g *Graph) Partition(nodes []int) int {
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	cut := 0
	for i := range g.Links {
		l := &g.Links[i]
		if l.Down || in[l.A] == in[l.B] {
			continue
		}
		l.Down = true
		g.classEpoch[l.Class]++
		g.partitionCut = append(g.partitionCut, int32(i))
		cut++
	}
	if cut > 0 {
		g.epoch++
		g.linkGen++
	}
	return cut
}

// Heal restores every link failed by Partition and clears the cut set.
// Links failed independently via FailLink stay down.
func (g *Graph) Heal() {
	if len(g.partitionCut) == 0 {
		return
	}
	for _, id := range g.partitionCut {
		g.Links[id].Down = false
		g.classEpoch[g.Links[id].Class]++
	}
	g.partitionCut = g.partitionCut[:0]
	g.epoch++
	g.linkGen++
}
