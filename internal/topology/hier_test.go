package topology

import (
	"testing"

	"bullet/internal/sim"
)

// hierRouterFor returns a router for g that answers through the
// hierarchical backend, failing the test when validation rejects the
// graph.
func hierRouterFor(t testing.TB, g *Graph) *Router {
	t.Helper()
	r := NewRouter(g)
	r.hier = buildHier(g)
	if r.hier == nil {
		t.Fatal("buildHier rejected a generated topology")
	}
	return r
}

// pathDelay sums the link delays along a path and checks that it forms
// a connected walk from -> to over live links.
func pathDelay(t testing.TB, g *Graph, from, to int, p []int32) sim.Duration {
	t.Helper()
	var d sim.Duration
	cur := from
	for _, lid := range p {
		l := &g.Links[lid]
		if l.Down {
			t.Fatalf("path %d->%d uses down link %d", from, to, lid)
		}
		switch cur {
		case l.A:
			cur = l.B
		case l.B:
			cur = l.A
		default:
			t.Fatalf("path %d->%d disconnected at link %d (cur %d)", from, to, lid, cur)
		}
		d += l.Delay
	}
	if cur != to {
		t.Fatalf("path %d->%d ends at %d", from, to, cur)
	}
	return d
}

// genHier generates a small transit-stub topology for equivalence
// tests.
func genHier(t *testing.T, transitDomains, transitSize, stubDomains, stubSize, clients int, seed int64) *Graph {
	t.Helper()
	g, err := Generate(Config{
		TransitDomains: transitDomains, TransitPerDomain: transitSize,
		StubDomains: stubDomains, StubDomainSize: stubSize,
		Clients: clients, ExtraEdgeFrac: 0.5,
		Bandwidth: MediumBandwidth, Seed: seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

// queryPairs yields a deterministic mix of endpoint pairs covering the
// interesting kind combinations: client-client, client-router,
// transit-transit, stub-stub (same and different atoms).
func queryPairs(g *Graph) [][2]int {
	var transit, stub []int
	for i := range g.Nodes {
		switch g.Nodes[i].Kind {
		case Transit:
			transit = append(transit, i)
		case Stub:
			stub = append(stub, i)
		}
	}
	var pairs [][2]int
	cl := g.Clients
	for i := 0; i < len(cl); i += 3 {
		pairs = append(pairs, [2]int{cl[i], cl[(i*7+5)%len(cl)]})
	}
	for i := 0; i < len(stub); i += 5 {
		pairs = append(pairs, [2]int{stub[i], stub[(i*3+1)%len(stub)]})
		pairs = append(pairs, [2]int{stub[i], transit[i%len(transit)]})
	}
	for i := 0; i < len(transit); i += 2 {
		pairs = append(pairs, [2]int{transit[i], transit[(i+3)%len(transit)]})
		pairs = append(pairs, [2]int{transit[i], cl[i%len(cl)]})
	}
	pairs = append(pairs, [2]int{cl[0], cl[0]}) // self query
	return pairs
}

// TestHierDeterministic checks that two independently built
// hierarchical routers return identical paths (not just equal-length
// ones) for every query — the property the sharded runner's
// byte-identity contract rests on.
func TestHierDeterministic(t *testing.T) {
	g := genHier(t, 2, 4, 10, 5, 24, 99)
	a := hierRouterFor(t, g)
	b := hierRouterFor(t, g)
	for _, pr := range queryPairs(g) {
		pa, pb := a.Path(pr[0], pr[1]), b.Path(pr[0], pr[1])
		if len(pa) != len(pb) {
			t.Fatalf("path(%d,%d) lengths differ", pr[0], pr[1])
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("path(%d,%d) differs at hop %d: %d vs %d",
					pr[0], pr[1], i, pa[i], pb[i])
			}
		}
	}
}

// TestHierEpochRebuild checks that a runtime link mutation (FailLink on
// a Transit-Transit link) advances the epoch and the rebuilt hierarchy
// agrees with the flat backend on the changed graph.
func TestHierEpochRebuild(t *testing.T) {
	g := genHier(t, 2, 3, 8, 5, 16, 5)
	flat := newFlatRouter(g)
	hr := hierRouterFor(t, g)
	// Warm both, then fail the first Transit-Transit link.
	_ = hr.Path(g.Clients[0], g.Clients[1])
	var tt int
	for i := range g.Links {
		if g.Links[i].Class == TransitTransit {
			tt = i
			break
		}
	}
	g.FailLink(tt)
	for _, pr := range queryPairs(g) {
		fd, hd := flat.Delay(pr[0], pr[1]), hr.Delay(pr[0], pr[1])
		if fd != hd {
			t.Fatalf("post-fail delay(%d,%d) flat %d hier %d", pr[0], pr[1], fd, hd)
		}
	}
	// And restore: delays must return to the original values.
	g.RestoreLink(tt)
	for _, pr := range queryPairs(g) {
		if fd, hd := flat.Delay(pr[0], pr[1]), hr.Delay(pr[0], pr[1]); fd != hd {
			t.Fatalf("post-restore delay(%d,%d) flat %d hier %d", pr[0], pr[1], fd, hd)
		}
	}
}

// TestHierValidationFallback checks that a topology breaking the
// transit-stub contract is rejected, leaving the flat backend in
// charge.
func TestHierValidationFallback(t *testing.T) {
	b := NewBuilder()
	n0 := b.AddNode(Transit, 0, 0)
	n1 := b.AddNode(Stub, 1, 0)
	c := b.AddNode(Client, 2, 0)
	b.AddLink(n0, n1, TransitStub, 1000, sim.Millisecond, 0)
	// Contract violation: a Client with two links.
	b.AddLink(c, n1, ClientStub, 1000, sim.Millisecond, 0)
	b.AddLink(c, n0, ClientStub, 1000, sim.Millisecond, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if buildHier(g) != nil {
		t.Fatal("buildHier accepted a client with two access links")
	}
}
