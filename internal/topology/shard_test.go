package topology

import (
	"slices"
	"testing"

	"bullet/internal/sim"
)

// starTopo builds a star of stub atoms around one transit hub: atoms
// B1..Bn (one stub + one client each, weight DefaultClientWeight+1)
// hang off transit node t via Transit-Stub links of ascending delay, so
// the merge phase absorbs atoms into t's group in B1..Bn order until
// the hub's group would outgrow a shard's fair share.
func starTopo(t *testing.T, n int) (*Graph, []int) {
	t.Helper()
	b := NewBuilder()
	const huge = 1e12
	hub := b.AddNode(Transit, 0, 0)
	stubs := make([]int, n)
	for i := 0; i < n; i++ {
		s := b.AddNode(Stub, float64(i), 1)
		c := b.AddNode(Client, float64(i), 2)
		b.AddLink(c, s, ClientStub, huge, sim.Millisecond, 0)
		b.AddLink(hub, s, TransitStub, huge, sim.Duration(i+1)*sim.Millisecond, 0)
		stubs[i] = s
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, stubs
}

// TestPartitionBalanceCapOverflowPacking drives the merge phase into
// its first refusal: with 7 equal stub atoms star-connected through one
// transit hub and k=3, a shard's fair share plus a tenth lets the hub
// group absorb B1 and B2 and refuses B3, which ends the merging with 6
// groups for 3 shards. The five left over are packed heaviest first
// onto the lightest shard, not dropped or given their own shards.
func TestPartitionBalanceCapOverflowPacking(t *testing.T) {
	g, _ := starTopo(t, 7)
	plan := PartitionShards(g, 3)
	checkPlan(t, g, 3, plan)
	aw := DefaultClientWeight + 1 // one client + one stub
	// Node order is hub, B1, B2, ...: shard 0 is {hub, B1, B2}; B3, B5
	// and B7 share shard 1; B4 and B6 share shard 2.
	if want := []int{2*aw + 1, 3 * aw, 2 * aw}; !slices.Equal(plan.Weights, want) {
		t.Fatalf("shard weights %v, want %v", plan.Weights, want)
	}
	// Cut links are exactly the Transit-Stub links whose atom landed
	// off the hub's shard, and the lookahead is their minimum delay:
	// atoms B3..B7 (delays 3..7 ms) stayed off, so 3ms.
	if plan.Lookahead != 3*sim.Millisecond {
		t.Fatalf("lookahead = %v, want 3ms", plan.Lookahead)
	}
	if cut := cutLinks(g, plan); len(cut) != 5 {
		t.Fatalf("%d cut links, want 5", len(cut))
	}
}

// TestPartitionSingleAtomK1 checks the K clamp: a topology that is one
// indivisible atom (a stub domain with clients, no transit) cannot be
// split no matter how many shards are requested.
func TestPartitionSingleAtomK1(t *testing.T) {
	b := NewBuilder()
	const huge = 1e12
	s0 := b.AddNode(Stub, 0, 0)
	s1 := b.AddNode(Stub, 1, 0)
	b.AddLink(s0, s1, StubStub, huge, sim.Millisecond, 0)
	for i := 0; i < 3; i++ {
		c := b.AddNode(Client, float64(i), 1)
		b.AddLink(c, s0, ClientStub, huge, sim.Millisecond, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := PartitionShards(g, 8)
	if plan.K != 1 {
		t.Fatalf("K = %d, want 1", plan.K)
	}
	if cut := cutLinks(g, plan); len(cut) != 0 || plan.Lookahead != 0 {
		t.Fatalf("single shard has cut %v lookahead %v", cut, plan.Lookahead)
	}
	if len(plan.Weights) != 1 || plan.Weights[0] != 3*DefaultClientWeight+2 {
		t.Fatalf("weights %v, want [%d]", plan.Weights, 3*DefaultClientWeight+2)
	}
	for i, s := range plan.ShardOf {
		if s != 0 {
			t.Fatalf("node %d on shard %d, want 0", i, s)
		}
	}
}

// autoTopo builds a hub-and-atoms topology with a controllable total
// load: atoms stub domains of clientsPerAtom clients each, all hanging
// off one transit hub over 20ms Transit-Stub links (so any cut the
// partitioner leaves has a healthy lookahead).
func autoTopo(t *testing.T, atoms, clientsPerAtom int) *Graph {
	t.Helper()
	b := NewBuilder()
	const huge = 1e12
	hub := b.AddNode(Transit, 0, 0)
	for i := 0; i < atoms; i++ {
		s := b.AddNode(Stub, float64(i), 1)
		b.AddLink(hub, s, TransitStub, huge, 20*sim.Millisecond, 0)
		for j := 0; j < clientsPerAtom; j++ {
			c := b.AddNode(Client, float64(i), 2)
			b.AddLink(c, s, ClientStub, huge, sim.Millisecond, 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAutoShardsLoadFloor: below autoMinWeight the answer is 1 no
// matter how many cores are offered — small runs stay serial.
func TestAutoShardsLoadFloor(t *testing.T) {
	g := autoTopo(t, 4, 40) // 160 clients: two orders below the floor
	for _, cores := range []int{1, 4, 16} {
		if got := AutoShards(g, cores); got != 1 {
			t.Fatalf("AutoShards(small, %d cores) = %d, want 1", cores, got)
		}
	}
}

// TestAutoShardsHeavyLoadSingleCore: a mega-class load (10k clients)
// must shard even on one core — the locality target, not the core
// count, drives the answer. The choice must also be deterministic.
func TestAutoShardsHeavyLoadSingleCore(t *testing.T) {
	g := autoTopo(t, 8, 1250) // 10000 clients ≈ 4x the per-shard target
	k := AutoShards(g, 1)
	if k < 2 {
		t.Fatalf("AutoShards(heavy, 1 core) = %d, want > 1", k)
	}
	if k > autoMaxShards {
		t.Fatalf("AutoShards(heavy, 1 core) = %d, exceeds cap %d", k, autoMaxShards)
	}
	if again := AutoShards(g, 1); again != k {
		t.Fatalf("AutoShards not deterministic: %d then %d", k, again)
	}
	// More cores never shrink the partition.
	if k16 := AutoShards(g, 16); k16 < k {
		t.Fatalf("AutoShards(heavy, 16 cores) = %d < 1-core answer %d", k16, k)
	}
}

// TestAutoShardsRespectsPlanQuality: the same heavy load with only
// hair-trigger 50µs links available for the cut scores every sharded
// candidate below serial (each barrier round costs ~autoBarrierCost of
// lookahead but buys almost none), so AutoShards declines to shard.
func TestAutoShardsRespectsPlanQuality(t *testing.T) {
	b := NewBuilder()
	const huge = 1e12
	hub := b.AddNode(Transit, 0, 0)
	for i := 0; i < 8; i++ {
		s := b.AddNode(Stub, float64(i), 1)
		b.AddLink(hub, s, TransitStub, huge, 50*sim.Microsecond, 0)
		for j := 0; j < 1250; j++ {
			c := b.AddNode(Client, float64(i), 2)
			b.AddLink(c, s, ClientStub, huge, sim.Millisecond, 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := AutoShards(g, 1); got != 1 {
		t.Fatalf("AutoShards(50µs cuts) = %d, want 1 (barrier-dominated)", got)
	}
}
