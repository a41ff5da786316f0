package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bullet/internal/sim"
)

func genSmall(t *testing.T, seed int64) *Graph {
	t.Helper()
	g, err := Generate(Config{
		TransitDomains:   2,
		TransitPerDomain: 3,
		StubDomains:      6,
		StubDomainSize:   5,
		Clients:          20,
		ExtraEdgeFrac:    0.3,
		Bandwidth:        MediumBandwidth,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateCounts(t *testing.T) {
	g := genSmall(t, 1)
	wantNodes := 2*3 + 6*5 + 20
	if len(g.Nodes) != wantNodes {
		t.Fatalf("nodes=%d want %d", len(g.Nodes), wantNodes)
	}
	if len(g.Clients) != 20 {
		t.Fatalf("clients=%d want 20", len(g.Clients))
	}
	for _, c := range g.Clients {
		if g.Nodes[c].Kind != Client {
			t.Fatalf("client id %d has kind %v", c, g.Nodes[c].Kind)
		}
		if g.Degree(c) != 1 {
			t.Fatalf("client %d degree=%d, want 1", c, g.Degree(c))
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, b := genSmall(t, 7), genSmall(t, 7)
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link count differs: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, a.Links[i], b.Links[i])
		}
	}
}

func TestGenerateConnectivity(t *testing.T) {
	g := genSmall(t, 3)
	r := NewRouter(g)
	src := g.Clients[0]
	for _, c := range g.Clients {
		if !r.Reachable(src, c) {
			t.Fatalf("client %d unreachable from %d", c, src)
		}
	}
}

func TestLinkClassesAndBandwidths(t *testing.T) {
	g := genSmall(t, 5)
	counts := g.LinkClassCounts()
	for _, cls := range []LinkClass{ClientStub, StubStub, TransitStub, TransitTransit} {
		if counts[cls] == 0 {
			t.Fatalf("no links of class %v", cls)
		}
	}
	for i := range g.Links {
		l := &g.Links[i]
		r := MediumBandwidth.Ranges[l.Class]
		kbps := l.Kbps()
		if kbps < r.Lo-1e-6 || kbps > r.Hi+1e-6 {
			t.Fatalf("link %d class %v bandwidth %.1f outside [%g,%g]", i, l.Class, kbps, r.Lo, r.Hi)
		}
		if l.Delay <= 0 {
			t.Fatalf("link %d nonpositive delay %v", i, l.Delay)
		}
		if l.Loss != 0 {
			t.Fatalf("link %d has loss %g under NoLoss profile", i, l.Loss)
		}
	}
}

func TestLossProfile(t *testing.T) {
	cfg := Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 10, StubDomainSize: 8,
		Clients: 50, ExtraEdgeFrac: 0.3,
		Bandwidth: MediumBandwidth, Loss: PaperLoss, Seed: 11,
	}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overloaded := 0
	for i := range g.Links {
		l := &g.Links[i]
		if l.Overload {
			overloaded++
			if l.Loss < PaperLoss.OverloadedLo || l.Loss > PaperLoss.OverloadedHi {
				t.Fatalf("overloaded link loss %g outside [%g,%g]", l.Loss, PaperLoss.OverloadedLo, PaperLoss.OverloadedHi)
			}
			continue
		}
		max := PaperLoss.TransitMax
		if l.Class == ClientStub || l.Class == StubStub {
			max = PaperLoss.NonTransitMax
		}
		if l.Loss < 0 || l.Loss > max {
			t.Fatalf("link class %v loss %g outside [0,%g]", l.Class, l.Loss, max)
		}
	}
	want := int(PaperLoss.OverloadedFrac * float64(len(g.Links)))
	if overloaded != want {
		t.Fatalf("overloaded=%d want %d", overloaded, want)
	}
}

func TestSizedProducesRequestedScale(t *testing.T) {
	cfg := Sized(2000, 100, MediumBandwidth)
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(g.Nodes)
	if n < 1500 || n > 2500 {
		t.Fatalf("Sized(2000) gave %d nodes", n)
	}
	if len(g.Clients) != 100 {
		t.Fatalf("clients=%d want 100", len(g.Clients))
	}
}

func TestRouterPathValidity(t *testing.T) {
	g := genSmall(t, 9)
	r := NewRouter(g)
	from, to := g.Clients[0], g.Clients[len(g.Clients)-1]
	path := r.Path(from, to)
	if len(path) == 0 {
		t.Fatal("empty path between distinct clients")
	}
	// Walk the path and confirm it is connected from -> to.
	cur := from
	for _, lid := range path {
		l := &g.Links[lid]
		switch cur {
		case l.A:
			cur = l.B
		case l.B:
			cur = l.A
		default:
			t.Fatalf("path link %d does not touch current node %d", lid, cur)
		}
	}
	if cur != to {
		t.Fatalf("path ends at %d, want %d", cur, to)
	}
}

func TestRouterSelfPath(t *testing.T) {
	g := genSmall(t, 2)
	r := NewRouter(g)
	if p := r.Path(5, 5); p == nil || len(p) != 0 {
		t.Fatalf("self path = %v, want empty non-nil", p)
	}
	if d := r.Delay(5, 5); d != 0 {
		t.Fatalf("self delay = %v", d)
	}
}

func TestRouterDelayMatchesPath(t *testing.T) {
	g := genSmall(t, 4)
	r := NewRouter(g)
	from, to := g.Clients[1], g.Clients[7]
	var sum sim.Duration
	for _, lid := range r.Path(from, to) {
		sum += g.Links[lid].Delay
	}
	d := r.Delay(from, to)
	diff := d - sum
	if diff < 0 {
		diff = -diff
	}
	if diff > sim.Microsecond {
		t.Fatalf("Delay=%v but path sums to %v", d, sum)
	}
}

// Property: for random client pairs, the shortest path is no longer (in
// delay) than any single alternate simple route we can find via a
// different first hop, and path loss is within [0,1].
func TestRouterProperties(t *testing.T) {
	g := genSmall(t, 12)
	r := NewRouter(g)
	f := func(ai, bi uint8) bool {
		a := g.Clients[int(ai)%len(g.Clients)]
		b := g.Clients[int(bi)%len(g.Clients)]
		pl := r.PathLoss(a, b)
		if pl < 0 || pl > 1 {
			return false
		}
		if a == b {
			return r.Delay(a, b) == 0
		}
		// Symmetric delay on an undirected graph.
		return r.Delay(a, b) == r.Delay(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestBottleneck(t *testing.T) {
	g := genSmall(t, 6)
	r := NewRouter(g)
	from, to := g.Clients[0], g.Clients[3]
	b := r.Bottleneck(from, to)
	min := 1e18
	for _, lid := range r.Path(from, to) {
		if c := g.Links[lid].Bytes; c < min {
			min = c
		}
	}
	if b != min {
		t.Fatalf("Bottleneck=%g want %g", b, min)
	}
	// Client access links cap the bottleneck.
	csMax := MediumBandwidth.Ranges[ClientStub].Hi * 1000 / 8
	if b > csMax+1 {
		t.Fatalf("bottleneck %g exceeds max client-stub capacity %g", b, csMax)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	bad := Config{Clients: -1}
	if _, err := Generate(bad); err == nil {
		t.Fatal("expected error for negative clients")
	}
	bad2 := Config{ExtraEdgeFrac: -0.5, Clients: 1}
	if _, err := Generate(bad2); err == nil {
		t.Fatal("expected error for negative extra edge fraction")
	}
}
