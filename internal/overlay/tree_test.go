package overlay

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bullet/internal/topology"
)

func testTopo(t *testing.T, seed int64, clients int) (*topology.Graph, *topology.Router) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 8, StubDomainSize: 5,
		Clients: clients, Bandwidth: topology.MediumBandwidth, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, topology.NewRouter(g)
}

func TestTreeBasics(t *testing.T) {
	tr := NewTree(1)
	if err := tr.Attach(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(4, 2); err != nil {
		t.Fatal(err)
	}
	if p, ok := tr.Parent(4); !ok || p != 2 {
		t.Fatalf("parent(4)=%d,%v", p, ok)
	}
	if _, ok := tr.Parent(1); ok {
		t.Fatal("root has a parent")
	}
	if tr.Size() != 4 || tr.Depth() != 2 || tr.DepthOf(4) != 2 {
		t.Fatalf("size=%d depth=%d", tr.Size(), tr.Depth())
	}
	if tr.Descendants(1) != 3 || tr.Descendants(2) != 1 {
		t.Fatal("descendants wrong")
	}
	if !tr.IsDescendant(2, 4) || tr.IsDescendant(3, 4) {
		t.Fatal("IsDescendant wrong")
	}
	if err := tr.Validate([]int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(5, 99); err == nil {
		t.Fatal("attach to unknown parent allowed")
	}
	if err := tr.Attach(2, 1); err == nil {
		t.Fatal("re-attach allowed")
	}
}

func TestRandomTreeSpanningAndBounded(t *testing.T) {
	g, _ := testTopo(t, 1, 40)
	rng := rand.New(rand.NewSource(1))
	tr, err := Random(g.Clients, g.Clients[0], 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(g.Clients); err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Participants {
		if tr.Degree(p) > 4 {
			t.Fatalf("node %d degree %d > 4", p, tr.Degree(p))
		}
	}
}

// Property: random trees are always valid spanning trees for any seed
// and degree bound >= 1.
func TestRandomTreeProperty(t *testing.T) {
	g, _ := testTopo(t, 2, 25)
	f := func(seed int64, degRaw uint8) bool {
		deg := int(degRaw)%6 + 1
		tr, err := Random(g.Clients, g.Clients[0], deg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if tr.Validate(g.Clients) != nil {
			return false
		}
		for _, p := range tr.Participants {
			if tr.Degree(p) > deg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatorContention(t *testing.T) {
	g, rt := testTopo(t, 3, 20)
	est := NewEstimator(rt, 1500)
	v, w := g.Clients[0], g.Clients[1]
	before := est.Throughput(v, w)
	if before <= 0 {
		t.Fatal("zero estimate on connected pair")
	}
	// Place several flows on the same path; fair share must fall.
	est.Place(v, w)
	est.Place(v, w)
	est.Place(v, w)
	after := est.Throughput(v, w)
	if after >= before {
		t.Fatalf("contention ignored: %v -> %v", before, after)
	}
	est.Reset()
	if est.Throughput(v, w) != before {
		t.Fatal("reset did not clear contention")
	}
}

func TestBottleneckTreeValidAndBetterThanRandom(t *testing.T) {
	g, rt := testTopo(t, 4, 30)
	root := g.Clients[0]
	bt, err := Bottleneck(rt, g.Clients, root, 1500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Validate(g.Clients); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	// Compare objective values: OMBT should beat the average random
	// tree's bottleneck (it is a greedy heuristic, so compare against
	// the mean of several).
	btRate := BottleneckRate(rt, bt, 1500)
	var sum float64
	const nRand = 5
	for i := 0; i < nRand; i++ {
		rtree, _ := Random(g.Clients, root, 6, rng)
		sum += BottleneckRate(rt, rtree, 1500)
	}
	if btRate < sum/nRand {
		t.Fatalf("OMBT bottleneck %.0f below random average %.0f", btRate, sum/nRand)
	}
}

func TestBottleneckTreeDegreeBound(t *testing.T) {
	g, rt := testTopo(t, 5, 25)
	bt, err := Bottleneck(rt, g.Clients, g.Clients[0], 1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bt.Participants {
		if bt.Degree(p) > 3 {
			t.Fatalf("degree %d > 3", bt.Degree(p))
		}
	}
	if err := bt.Validate(g.Clients); err != nil {
		t.Fatal(err)
	}
}

func TestOvercastTree(t *testing.T) {
	g, rt := testTopo(t, 6, 30)
	ot, err := Overcast(rt, g.Clients, g.Clients[0], 1500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := ot.Validate(g.Clients); err != nil {
		t.Fatal(err)
	}
	// The paper found Overcast-like trees reach at most ~75% of the
	// offline tree; verify it does not *exceed* the offline objective
	// by any meaningful margin.
	bt, _ := Bottleneck(rt, g.Clients, g.Clients[0], 1500, 0)
	if BottleneckRate(rt, ot, 1500) > BottleneckRate(rt, bt, 1500)*1.2 {
		t.Fatal("online Overcast tree beat the offline OMBT by >20%; estimator inconsistent")
	}
}

func TestHandcraftedGoodVsWorst(t *testing.T) {
	g, rt := testTopo(t, 7, 30)
	root := g.Clients[0]
	good, err := Handcrafted(rt, g.Clients, root, 1500, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := Handcrafted(rt, g.Clients, root, 1500, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(g.Clients); err != nil {
		t.Fatal(err)
	}
	if err := worst.Validate(g.Clients); err != nil {
		t.Fatal(err)
	}
	// The good tree puts high-bandwidth nodes near the root: mean
	// bandwidth of the root's children must dominate the worst tree's.
	est := NewEstimator(rt, 1500)
	mean := func(tr *Tree) float64 {
		var s float64
		cs := tr.Children(root)
		for _, c := range cs {
			s += est.Throughput(root, c)
		}
		return s / float64(len(cs))
	}
	if mean(good) <= mean(worst) {
		t.Fatalf("good tree root children bw %.0f <= worst %.0f", mean(good), mean(worst))
	}
	for _, p := range good.Participants {
		if good.Degree(p) > 3 {
			t.Fatal("good tree exceeds degree bound")
		}
	}
}

func TestBottleneckRatePositive(t *testing.T) {
	g, rt := testTopo(t, 8, 15)
	bt, _ := Bottleneck(rt, g.Clients, g.Clients[0], 1500, 0)
	if r := BottleneckRate(rt, bt, 1500); r <= 0 {
		t.Fatalf("bottleneck rate %v", r)
	}
}

func TestReparentChildren(t *testing.T) {
	//       1
	//      / \
	//     2   3
	//    / \
	//   4   5
	tr := NewTree(1)
	for _, e := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 2}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	promoted, err := tr.ReparentChildren(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(promoted) != 2 || promoted[0] != 4 || promoted[1] != 5 {
		t.Fatalf("promoted %v, want [4 5]", promoted)
	}
	if tr.Contains(2) {
		t.Fatal("removed node still present")
	}
	for _, n := range []int{4, 5} {
		if p, _ := tr.Parent(n); p != 1 {
			t.Fatalf("node %d parent %d, want 1", n, p)
		}
	}
	// Children order at the grandparent: existing child first, then the
	// promoted ones in their original order.
	if got := tr.Children(1); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("root children %v, want [3 4 5]", got)
	}
	if tr.Size() != 4 {
		t.Fatalf("size %d, want 4", tr.Size())
	}
	if err := tr.Validate([]int{1, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// Errors: root and unknown nodes.
	if _, err := tr.ReparentChildren(1); err == nil {
		t.Fatal("reparenting the root was allowed")
	}
	if _, err := tr.ReparentChildren(99); err == nil {
		t.Fatal("reparenting an unknown node was allowed")
	}
}

func TestAttachPoint(t *testing.T) {
	tr := NewTree(1)
	for _, e := range [][2]int{{2, 1}, {3, 1}, {4, 2}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Root has degree 2: with bound 3 the root itself is first in BFS.
	if got := tr.AttachPoint(3, nil); got != 1 {
		t.Fatalf("AttachPoint(3) = %d, want 1", got)
	}
	// Bound 2: root is full; BFS order visits 2 (degree 1) next.
	if got := tr.AttachPoint(2, nil); got != 2 {
		t.Fatalf("AttachPoint(2) = %d, want 2", got)
	}
	// Filter: excluding node 2 moves the choice to 3.
	if got := tr.AttachPoint(2, func(n int) bool { return n != 2 }); got != 3 {
		t.Fatalf("filtered AttachPoint = %d, want 3", got)
	}
	// Unbounded degree always yields the root.
	if got := tr.AttachPoint(0, nil); got != 1 {
		t.Fatalf("AttachPoint(0) = %d, want 1", got)
	}
	// Nothing eligible.
	if got := tr.AttachPoint(2, func(int) bool { return false }); got != -1 {
		t.Fatalf("AttachPoint with empty filter = %d, want -1", got)
	}
}
