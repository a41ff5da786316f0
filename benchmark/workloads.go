package main

import (
	"fmt"
	"math/rand"
	"slices"

	"bullet"
	"bullet/internal/overlay"
	"bullet/internal/topology"
)

// A workload is one set of simulator inputs. Sizes are fixed per
// workload; only the streamed virtual span scales with the requested
// wall-clock budget, so a run stays a pure function of
// (workload, seed, seconds). All workloads use the medium bandwidth
// profile, a random tree and a CBR 600 Kbps source.
type workload struct {
	name     string
	nodes    int  // physical topology size
	clients  int  // overlay participants
	degree   int  // random-tree degree bound
	streamer bool // plain tree streamer instead of Bullet
	packet   int  // bytes per packet
	dynamics bool // PaperLoss links plus the link/membership scenario
	shards   int  // WorldConfig.Shards
	// serialRef names the serial workload with identical inputs whose
	// digest and simulated metrics a sharded workload must reproduce.
	serialRef string
	// instances is how many inputs, generated from consecutive seeds,
	// one measurement runs, each in its own process; the reported
	// value is the median over them. At 150 participants the event
	// mix, memory and control traffic swing by 10 to 20% from one
	// generated topology and tree to the next, which six instances
	// even out. The large workloads spend seconds of every run before
	// the stream is under way, so they afford two.
	instances int
	// share is the part of the wall-clock budget (-seconds) one
	// instance's World.Run takes. The small workloads split the budget
	// evenly; the large ones take five eighths of it per instance,
	// one and a quarter budgets in all, to still reach the streaming
	// regime in each.
	share float64
	// vsPerWall is the streamed virtual seconds one wall-clock second
	// of an instance's World.Run buys on the reference box at the
	// default budget (README, "Reference box"): the calibration that
	// turns -seconds into a virtual span.
	vsPerWall float64
}

const (
	rateKbps   = 600
	streamFrom = 20 * bullet.Second // RanSub and the mesh run from t=0
)

var workloads = []workload{
	{name: "bullet-steady", nodes: 5000, clients: 150, degree: 6, packet: 1500, instances: 6, share: 1. / 6, vsPerWall: 20},
	{name: "bullet-paper", nodes: 20000, clients: 1000, degree: 10, packet: 1500, instances: 2, share: 0.625, vsPerWall: 2.1},
	{name: "streamer-forward", nodes: 5000, clients: 150, degree: 6, streamer: true, packet: 250, instances: 6, share: 1. / 6, vsPerWall: 29},
	{name: "bullet-dynamics", nodes: 5000, clients: 150, degree: 6, packet: 1500, dynamics: true, instances: 6, share: 1. / 6, vsPerWall: 11.5},
	{name: "bullet-wide", nodes: 60000, clients: 3000, degree: 10, packet: 1500, instances: 2, share: 0.625, vsPerWall: 1.25},
	{name: "bullet-wide-sharded", nodes: 60000, clients: 3000, degree: 10, packet: 1500, shards: 2,
		serialRef: "bullet-wide", instances: 2, share: 0.625, vsPerWall: 1.25},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to the test scale; the shape — protocol,
// loss, scenario, shards — stays.
func (w workload) quick() workload {
	w.nodes, w.clients, w.degree = 300, 10, 3
	w.instances = min(w.instances, 2)
	return w
}

// maxInstances bounds workload.instances, so that the instance seeds of
// different -seed values never overlap.
const maxInstances = 8

// instanceSeed is the seed of a measurement's i-th instance.
func instanceSeed(seed int64, i int) int64 { return seed*maxInstances + int64(i) }

// stream returns the streamed virtual span of each instance for a
// measurement meant to take wallSeconds on the reference box, in whole
// virtual seconds so a traced run slices it exactly.
func (w workload) stream(wallSeconds float64) bullet.Duration {
	vs := int64(w.vsPerWall*wallSeconds*w.share + 0.5)
	return bullet.Duration(max(vs, 2)) * bullet.Second
}

// built is a deployed workload, ready to Run.
type built struct {
	world *bullet.World
	tree  *bullet.Tree
	dep   bullet.Deployment
	from  bullet.Time // measurement window start: second half of the stream
	until bullet.Time // end of stream and of the run
}

// build generates the inputs from seed and deploys them; the simulator
// receives only what is generated here. Each phase is recorded as a
// span (sp may be nil).
func (w workload) build(seed int64, stream bullet.Duration, sp *spans) (*built, error) {
	wc := bullet.WorldConfig{TotalNodes: w.nodes, Clients: w.clients, Seed: seed, Shards: w.shards}
	if w.dynamics {
		wc.Loss = bullet.PaperLoss
	}
	end := sp.begin("world.new")
	world, err := bullet.NewWorld(wc)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: new world: %w", w.name, err)
	}

	end = sp.begin("overlay.tree")
	var tree *bullet.Tree
	if w.dynamics {
		// One eighth of the clients is held out to join late, so the
		// tree covers a subset: the one place the public API (whole
		// participant set only) is bypassed, with World.RandomTree's
		// own seed derivation.
		members := world.Participants()
		members = members[:len(members)*7/8]
		tree, err = overlay.Random(members, members[0], w.degree, rand.New(rand.NewSource(seed^0x74726565)))
	} else {
		tree, err = world.RandomTree(w.degree)
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: tree: %w", w.name, err)
	}

	var proto bullet.Protocol
	if w.streamer {
		proto = bullet.StreamerProtocol{Config: bullet.StreamConfig{
			RateKbps: rateKbps, PacketSize: w.packet, Start: streamFrom, Duration: stream}}
	} else {
		cfg := bullet.DefaultConfig(rateKbps)
		cfg.PacketSize = w.packet
		cfg.Start, cfg.Duration = streamFrom, stream
		cfg.TraceEvery = 100
		// Mesh degree as experiments.bulletConfig derives it.
		peers := min(max(w.clients/10, 4), 10)
		cfg.MaxSenders, cfg.MaxReceivers = peers, peers
		proto = bullet.BulletProtocol{Config: cfg}
	}
	end = sp.begin("core.deploy")
	dep, err := world.Deploy(proto, tree)
	end()
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
	}
	b := &built{world: world, tree: tree, dep: dep,
		from: streamFrom + stream/2, until: streamFrom + stream}
	if w.dynamics {
		world.Scenario(dynamicsScenario(world, tree, stream))
	}
	return b, nil
}

// dynamicsScenario is the adverse-network schedule of bullet-dynamics.
// Every 10 virtual seconds of the stream it fails and restores a victim
// access link, partitions and heals one stub domain, and halves and
// restores one transit link's bandwidth; from the one-third mark it
// crashes 20% of the participants in one wave, restarts every second
// victim and admits the held-out clients one by one until the
// two-thirds mark. Everything derives from the generated graph and
// tree, hence from the seed.
func dynamicsScenario(world *bullet.World, tree *bullet.Tree, stream bullet.Duration) *bullet.Scenario {
	g := world.Graph()
	s := bullet.NewScenario()
	const period = 10 * bullet.Second
	cycles := max(int(stream/period), 1)

	// Victim access link: the root child with the largest subtree, as
	// in the paper's worst-case failure experiments.
	if victim, _ := tree.HeaviestChild(tree.Root); victim >= 0 {
		lid := g.AccessLink(victim)
		s.Oscillate(streamFrom+2*bullet.Second, period, cycles, bullet.FailLink(lid), bullet.RestoreLink(lid))
	}
	// One stub domain with its clients, the last participant's that
	// does not hold the source.
	for i := len(tree.Participants) - 1; i > 0; i-- {
		if domain := stubDomain(g, tree.Participants[i]); !slices.Contains(domain, tree.Root) {
			s.Oscillate(streamFrom+4*bullet.Second, period, cycles,
				bullet.PartitionNodes(domain...), bullet.HealPartition())
			break
		}
	}
	// One transit link.
	for i := range g.Links {
		if l := &g.Links[i]; l.Class == topology.TransitTransit {
			kbps := l.Kbps()
			s.Oscillate(streamFrom+6*bullet.Second, period, cycles,
				bullet.SetBandwidth(l.ID, kbps/2), bullet.SetBandwidth(l.ID, kbps))
			break
		}
	}

	t1, t2 := streamFrom+stream/3, streamFrom+2*stream/3
	var victims []int
	for i, p := range tree.Participants {
		if p != tree.Root && i%5 == 0 {
			victims = append(victims, p)
		}
	}
	s.At(t1, bullet.ChurnNodes(victims...))
	var later []bullet.ScenarioAction
	for i, v := range victims {
		if i%2 == 0 {
			later = append(later, bullet.RestartNode(v))
		}
	}
	for _, c := range world.Participants() {
		if !tree.Contains(c) {
			later = append(later, bullet.JoinNode(c))
		}
	}
	for i, a := range later {
		s.At(t1+bullet.Duration(i+1)*(t2-t1)/bullet.Duration(len(later)+1), a)
	}
	return s
}

// stubDomain returns the stub domain client hangs off, clients
// included: everything reachable from it without crossing a link into
// the transit backbone.
func stubDomain(g *bullet.Graph, client int) []int {
	seen := map[int]bool{client: true}
	domain := []int{client}
	for i := 0; i < len(domain); i++ {
		g.Neighbors(domain[i], func(peer int, l *topology.Link) {
			if (l.Class == topology.ClientStub || l.Class == topology.StubStub) && !seen[peer] {
				seen[peer] = true
				domain = append(domain, peer)
			}
		})
	}
	return domain
}
