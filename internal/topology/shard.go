package topology

import (
	"sort"

	"bullet/internal/sim"
)

// ShardPlan is a deterministic partition of the topology into shards
// for single-run parallel simulation, made by PartitionShards: stub
// domains (with their clients) are indivisible atoms, atoms merge
// across their shortest connecting links while a shard's fair share
// allows, and the links left crossing shards are therefore the longer
// ones — the conservative-PDES lookahead is the minimum propagation
// delay over the cut.
type ShardPlan struct {
	// K is the effective shard count (>= 1). It can be lower than the
	// requested count when the topology has fewer atoms.
	K int
	// ShardOf maps every node id to its shard index. Shard indices are
	// normalized by ascending minimum member node id, so the plan is a
	// pure function of (graph structure, k).
	ShardOf []int
	// Lookahead is the minimum delay over the links whose endpoints
	// live on different shards (0 when K == 1: no cut, unbounded
	// windows). Link delays never change after the graph is built, so
	// this one value sizes the windows of every run over the plan.
	Lookahead sim.Duration
	// Weights is each shard's planned weight — the sum of the node
	// weights the balancer packed onto it. Surfaced for load
	// observability (bullet-sim -shardstats); never read by the
	// runtime.
	Weights []int
}

// uf is a deterministic union-find over node ids.
type uf struct{ parent []int32 }

func newUF(n int) *uf {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &uf{parent: p}
}

func (u *uf) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// union attaches the larger root under the smaller, so the root of a
// set is always its minimum member — a deterministic canonical id.
func (u *uf) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// DefaultClientWeight is the relative event load of a client node
// versus a router node, used by PartitionShards to balance shards.
// The value is measured, not guessed: per-shard executed-event counters
// (netem.RunLoad on Figure 7 runs) against per-shard client and
// router counts come to ≈150k events per client and ≈15 per router —
// clients own the protocol timers, endpoint packet processing, and most
// hop events, while routers only forward through. The earlier
// hand-picked 101:1 underweighted clients by two orders of magnitude,
// which let a client-heavy stub domain pair with a router-heavy one and
// stall every barrier window on the hot shard. Partition choice never
// affects simulation output bytes — only load balance — so re-deriving
// this constant is always safe.
const DefaultClientWeight = 10000

// nodeWeight approximates a node's event load.
func nodeWeight(k NodeKind) int {
	if k == Client {
		return DefaultClientWeight
	}
	return 1
}

// Auto-shard tuning constants. All weights are in nodeWeight units
// (DefaultClientWeight per client, 1 per router).
const (
	// autoMinWeight is the load below which AutoShards always answers 1:
	// with fewer than ~2000 clients of event load, a run's working set
	// (event heap, per-node protocol state) stays cache-resident and the
	// barrier rounds cost more than they save. The standard small/medium/
	// xl/paper scales all sit below this line; mega sits far above it.
	autoMinWeight = 2000 * DefaultClientWeight
	// autoTargetWeight is the per-shard load AutoShards aims for — the
	// point where a shard's event heap and hot per-node state outgrow the
	// cache and splitting further still pays even without spare cores.
	autoTargetWeight = 2500 * DefaultClientWeight
	// autoMaxShards caps the answer: past this, barrier fan-in and
	// cross-shard handoff overtake any locality or parallelism gain on
	// the machines this simulator targets.
	autoMaxShards = 16
	// autoBarrierCost is one barrier round's overhead as virtual lookahead
	// time: a plan whose cut lookahead is shorter than this spends longer
	// synchronizing than simulating, and AutoShards answers 1 for it.
	// Generated transit-stub graphs leave 3-8 ms on the cut.
	autoBarrierCost = 1 * sim.Millisecond
)

// AutoShards picks a shard count for g on a machine with the given
// number of worker cores. It is a pure function of (g, cores): the
// driver can resolve "-shards auto" once and every run of the same
// topology lands on the same K. The choice never affects simulation
// output bytes — sharded runs are byte-identical to serial at any K —
// only wall-clock and memory locality.
//
// Below autoMinWeight of node weight the answer is 1. Above it the
// count comes from both supply and demand: enough shards that each
// carries about autoTargetWeight (locality — a 100k-node topology wants
// several shards even on one core, because each shard's event heap then
// stays hot), and at least one shard per core (parallelism), clamped to
// autoMaxShards. PartitionShards balances whatever count it is given,
// so the plan at that count is taken as it comes, unless its lookahead
// is below autoBarrierCost: then the answer is 1.
func AutoShards(g *Graph, cores int) int {
	total := 0
	for i := range g.Nodes {
		total += nodeWeight(g.Nodes[i].Kind)
	}
	if total < autoMinWeight {
		return 1
	}
	want := total / autoTargetWeight
	if want < 2 {
		want = 2
	}
	if cores > want {
		want = cores
	}
	if want > autoMaxShards {
		want = autoMaxShards
	}
	plan := PartitionShards(g, want)
	// Lookahead 0 with K > 1 means no cut links: unbounded windows.
	if plan.Lookahead > 0 && plan.Lookahead < autoBarrierCost {
		return 1
	}
	return plan.K
}

// mergeSlackDiv sets how far past a shard's fair share a merged group
// may grow: cap = ideal + ideal/mergeSlackDiv. The giant component of a
// generated transit-stub graph percolates between 5 and 7 ms of link
// delay, so slack buys about 1% of lookahead per 25% of imbalance
// (cap = f × ideal, lookahead and participants per shard):
//
//	f     60,000 nodes / 3,000 clients, K=2   100,000 / 10,000, K=8
//	0.25  5.46 ms  1500/1500                  4.92 ms  8 × 1250
//	0.5   6.35 ms  1500/1500                  5.10 ms  8 × 1250
//	1.0   6.71 ms  1500/1500                  5.50 ms  8 × 1250
//	1.1   6.71 ms  1500/1500                  5.50 ms  8 × 1250
//	1.25  6.80 ms  1126/1874                  5.66 ms  7 × 1218 + 1471
//	1.5   7.85 ms  2230/770                   5.76 ms  7 × ~1168 + 1826
//	2.0   18.85 ms 2978/22                    5.83 ms  7 × ~1086 + 2402
//
// The tenth over 1.0 is there for handcrafted graphs of a few clients,
// where a weight-1 transit node would otherwise tip an exact half.
const mergeSlackDiv = 10

// PartitionShards partitions g into at most k shards.
//
// Atoms are the connected components over Client-Stub and Stub-Stub
// links: a stub domain and its attached clients always share a shard
// (so do clients attached directly to transit hubs in handcrafted
// topologies), which keeps the dense intra-domain traffic off the
// cut. Atoms are then merged single-linkage style across inter-atom
// links in ascending (delay, link id) order until k groups remain or a
// merge would put a group past a shard's fair share of the weight plus
// a tenth. The first refused link is left between two groups, where it
// bounds the lookahead, so merging anything longer buys nothing and the
// merging stops there: the groups left over are packed, heaviest first,
// each onto the lightest shard so far. The result is a pure function of
// (g, k).
func PartitionShards(g *Graph, k int) ShardPlan {
	n := len(g.Nodes)
	if k < 1 {
		k = 1
	}
	u := newUF(n)
	for i := range g.Links {
		l := &g.Links[i]
		if l.Class == ClientStub || l.Class == StubStub {
			u.union(int32(l.A), int32(l.B))
		}
	}

	// Group weights, indexed by canonical root.
	weight := make([]int, n)
	total := 0
	for i := range g.Nodes {
		w := nodeWeight(g.Nodes[i].Kind)
		weight[u.find(int32(i))] += w
		total += w
	}
	groups := 0
	for i := range g.Nodes {
		if u.find(int32(i)) == int32(i) {
			groups++
		}
	}

	if k > 1 && groups > k {
		// Merge phase: shortest inter-atom links first, so the links
		// that remain on the cut are the longer ones.
		type edge struct {
			delay sim.Duration
			id    int32
		}
		var edges []edge
		for i := range g.Links {
			l := &g.Links[i]
			if u.find(int32(l.A)) != u.find(int32(l.B)) {
				edges = append(edges, edge{delay: l.Delay, id: int32(l.ID)})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].delay != edges[j].delay {
				return edges[i].delay < edges[j].delay
			}
			return edges[i].id < edges[j].id
		})
		ideal := (total + k - 1) / k
		cap := ideal + ideal/mergeSlackDiv
		for _, e := range edges {
			if groups == k {
				break
			}
			l := &g.Links[e.id]
			ra, rb := u.find(int32(l.A)), u.find(int32(l.B))
			if ra == rb {
				continue
			}
			w := weight[ra] + weight[rb]
			if w > cap {
				break
			}
			u.union(ra, rb)
			weight[u.find(ra)] = w
			groups--
		}
	}

	// Pack groups onto shards: with groups <= k this is one group per
	// shard; otherwise heaviest groups first onto the lightest shard.
	type grp struct {
		root   int32
		weight int
	}
	var gs []grp
	for i := range g.Nodes {
		if u.find(int32(i)) == int32(i) {
			gs = append(gs, grp{root: int32(i), weight: weight[i]})
		}
	}
	if k > len(gs) {
		k = len(gs)
	}
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].weight != gs[j].weight {
			return gs[i].weight > gs[j].weight
		}
		return gs[i].root < gs[j].root
	})
	shardW := make([]int, k)
	shardOfRoot := make([]int, n)
	for _, gr := range gs {
		best := 0
		for s := 1; s < k; s++ {
			if shardW[s] < shardW[best] {
				best = s
			}
		}
		shardOfRoot[gr.root] = best
		shardW[best] += gr.weight
	}

	// Normalize shard numbering by ascending minimum node id, so the
	// packing order above never shows through in the plan.
	rename := make([]int, k)
	for i := range rename {
		rename[i] = -1
	}
	next := 0
	shardOf := make([]int, n)
	for i := 0; i < n; i++ {
		s := shardOfRoot[u.find(int32(i))]
		if rename[s] < 0 {
			rename[s] = next
			next++
		}
		shardOf[i] = rename[s]
	}

	plan := ShardPlan{K: k, ShardOf: shardOf, Weights: make([]int, k)}
	for i := range g.Nodes {
		plan.Weights[shardOf[i]] += nodeWeight(g.Nodes[i].Kind)
	}
	for i := range g.Links {
		l := &g.Links[i]
		if shardOf[l.A] != shardOf[l.B] && (plan.Lookahead == 0 || l.Delay < plan.Lookahead) {
			plan.Lookahead = l.Delay
		}
	}
	return plan
}
