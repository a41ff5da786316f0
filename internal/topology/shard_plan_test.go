package topology

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bullet/internal/sim"
)

// cutLinks returns the ids of the links whose endpoints plan puts on
// different shards, ascending.
func cutLinks(g *Graph, plan ShardPlan) []int {
	var cut []int
	for i := range g.Links {
		if l := &g.Links[i]; plan.ShardOf[l.A] != plan.ShardOf[l.B] {
			cut = append(cut, i)
		}
	}
	return cut
}

// checkPlan holds plan, the answer of PartitionShards(g, k), to
// everything a ShardPlan promises, recomputed here from the graph and
// ShardOf alone, and to the balance the partition rule guarantees.
func checkPlan(t testing.TB, g *Graph, k int, plan ShardPlan) {
	t.Helper()
	if k < 1 {
		k = 1
	}
	if plan.K < 1 || plan.K > k {
		t.Fatalf("K = %d, want within [1, %d]", plan.K, k)
	}
	if len(plan.ShardOf) != len(g.Nodes) {
		t.Fatalf("ShardOf covers %d nodes, graph has %d", len(plan.ShardOf), len(g.Nodes))
	}
	// Shard ids are handed out in ascending order of first member, which
	// also means every id below K is in use.
	next := 0
	weights := make([]int, plan.K)
	for i, s := range plan.ShardOf {
		if s < 0 || s >= plan.K {
			t.Fatalf("node %d on shard %d, K = %d", i, s, plan.K)
		}
		if s > next {
			t.Fatalf("node %d opens shard %d before shard %d has a member", i, s, next)
		}
		if s == next {
			next++
		}
		weights[s] += nodeWeight(g.Nodes[i].Kind)
	}
	if next != plan.K {
		t.Fatalf("%d shards have members, K = %d", next, plan.K)
	}
	if !slices.Equal(plan.Weights, weights) {
		t.Fatalf("Weights %v, members weigh %v", plan.Weights, weights)
	}
	var lookahead sim.Duration
	for _, lid := range cutLinks(g, plan) {
		l := &g.Links[lid]
		if l.Class == ClientStub || l.Class == StubStub {
			t.Fatalf("%v link %d (%d-%d) is on the cut: an atom was split", l.Class, lid, l.A, l.B)
		}
		if lookahead == 0 || l.Delay < lookahead {
			lookahead = l.Delay
		}
	}
	if plan.Lookahead != lookahead {
		t.Fatalf("Lookahead %v, minimum delay over the cut %v", plan.Lookahead, lookahead)
	}
	// Balance, by the list-scheduling argument: no group outgrows the
	// merge cap unless it is a single atom, and a group is only ever put
	// on the lightest shard, which holds at most the mean.
	atoms := newUF(len(g.Nodes))
	for i := range g.Links {
		if l := &g.Links[i]; l.Class == ClientStub || l.Class == StubStub {
			atoms.union(int32(l.A), int32(l.B))
		}
	}
	atomW := make([]int, len(g.Nodes))
	total := 0
	for i := range g.Nodes {
		w := nodeWeight(g.Nodes[i].Kind)
		atomW[atoms.find(int32(i))] += w
		total += w
	}
	ideal := (total + k - 1) / k
	bound := ideal + max(ideal+ideal/mergeSlackDiv, slices.Max(atomW))
	if heaviest := slices.Max(plan.Weights); heaviest > bound {
		t.Fatalf("heaviest shard weighs %d of %d over k=%d, bound %d", heaviest, total, k, bound)
	}
	if again := PartitionShards(g, k); !reflect.DeepEqual(plan, again) {
		t.Fatalf("second PartitionShards(g, %d) differs from the first", k)
	}
}

// hubClientsTopo is the fig15 shape: a chain of Transit hubs with
// clientsAt[h] clients attached straight to hub h and no Stub node
// anywhere, so each hub and its clients form one atom and only
// Transit-Transit links can be cut.
func hubClientsTopo(t *testing.T, clientsAt ...int) *Graph {
	t.Helper()
	b := NewBuilder()
	const huge = 1e12
	prev := -1
	for h, n := range clientsAt {
		hub := b.AddNode(Transit, float64(h), 0)
		if prev >= 0 {
			b.AddLink(prev, hub, TransitTransit, huge, sim.Duration(10*(h+1))*sim.Millisecond, 0)
		}
		prev = hub
		for c := 0; c < n; c++ {
			cl := b.AddNode(Client, float64(h), float64(c+1))
			b.AddLink(cl, hub, ClientStub, huge, sim.Duration(c+2)*sim.Millisecond, 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPartitionPlanContract runs checkPlan over generated graphs at the
// node and client counts of every experiments scale (the mega one is
// skipped under -short) and over the handcrafted shapes.
func TestPartitionPlanContract(t *testing.T) {
	ks := []int{2, 4, 8, 16}
	for _, sc := range scaleSizes {
		if testing.Short() && sc[0] > 20000 {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			cfg := Sized(sc[0], sc[1], MediumBandwidth)
			cfg.Seed = seed
			g, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ks {
				t.Run(fmt.Sprintf("n%d/seed%d/k%d", sc[0], seed, k), func(t *testing.T) {
					checkPlan(t, g, k, PartitionShards(g, k))
				})
			}
		}
	}
	star, _ := starTopo(t, 7)
	hubs := hubClientsTopo(t, 11, 18, 18) // fig15's 47 participants
	for _, k := range append([]int{1, 3}, ks...) {
		t.Run(fmt.Sprintf("star/k%d", k), func(t *testing.T) {
			checkPlan(t, star, k, PartitionShards(star, k))
		})
		t.Run(fmt.Sprintf("hub-clients/k%d", k), func(t *testing.T) {
			checkPlan(t, hubs, k, PartitionShards(hubs, k))
		})
	}
}

// TestPartitionBalancedAtScale holds the partition to what the sharded
// runs need at the two scales they are run at: shards within 15% of the
// mean weight and a lookahead of at least a millisecond. It logs the
// plan: participants per shard, cut size, lookahead.
func TestPartitionBalancedAtScale(t *testing.T) {
	cases := []struct {
		nodes, clients, k int
		seed              int64
	}{
		{60000, 3000, 2, 336}, // the benchmark's bullet-wide-sharded graph
		{100000, 10000, 8, 42},
	}
	for _, c := range cases {
		if c.nodes > 60000 && testing.Short() {
			continue
		}
		cfg := Sized(c.nodes, c.clients, MediumBandwidth)
		cfg.Seed = c.seed
		g, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := PartitionShards(g, c.k)
		checkPlan(t, g, c.k, plan)
		clients := make([]int, plan.K)
		for _, cl := range g.Clients {
			clients[plan.ShardOf[cl]]++
		}
		t.Logf("%d nodes, %d clients, k=%d: clients per shard %v, %d cut links, lookahead %.2f ms",
			len(g.Nodes), len(g.Clients), c.k, clients, len(cutLinks(g, plan)), float64(plan.Lookahead)/float64(sim.Millisecond))
		total := 0
		for _, w := range plan.Weights {
			total += w
		}
		if r := float64(slices.Max(plan.Weights)) * float64(plan.K) / float64(total); plan.K != c.k || r > 1.15 {
			t.Errorf("K = %d, heaviest shard at %.2f of the mean; want K = %d within 1.15", plan.K, r, c.k)
		}
		if plan.Lookahead < sim.Millisecond {
			t.Errorf("lookahead %v, want at least 1ms", plan.Lookahead)
		}
	}
}

// FuzzPartitionShards runs checkPlan on generated graphs of fuzzed
// seed, size, client count and shard count (0, which PartitionShards
// reads as 1, included).
func FuzzPartitionShards(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), uint16(2))
	f.Add(int64(42), uint16(1440), uint16(39), uint16(4))
	f.Add(int64(7), uint16(2500), uint16(900), uint16(16))
	f.Fuzz(func(t *testing.T, seed int64, size, clients, k uint16) {
		nodes := 60 + int(size)%4000
		cfg := Sized(nodes, 1+int(clients)%(nodes/2), MediumBandwidth)
		cfg.Seed = seed
		g, err := Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		kk := int(k) % 33
		checkPlan(t, g, kk, PartitionShards(g, kk))
	})
}
