package topology

import (
	"math"
	"slices"
	"sync"
	"testing"

	"bullet/internal/sim"
)

// hierRouterFor returns a router for g that answers through the
// hierarchical backend, failing the test when validation rejects the
// graph.
func hierRouterFor(t testing.TB, g *Graph) *Router {
	t.Helper()
	r := NewRouter(g)
	if r.hier == nil {
		t.Fatal("NewRouter served a generated topology from the flat backend")
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

// firstLink returns the lowest-id link of the given class.
func firstLink(t *testing.T, g *Graph, class LinkClass) int {
	t.Helper()
	for i := range g.Links {
		if g.Links[i].Class == class {
			return i
		}
	}
	t.Fatalf("no %v link", class)
	return -1
}

// TestHierScopedInvalidation checks that a route change drops only the
// shared state its link class can have reached — counted in fills of
// atom gateway trees, the terminal graph and terminal rows — and that
// the answers after it equal the flat backend's.
func TestHierScopedInvalidation(t *testing.T) {
	g := genHier(t, 2, 3, 8, 5, 16, 5)
	d := newDiff(t, g)
	h := d.hier.hier
	pairs := queryPairs(g)
	requery := func() hierFills {
		t.Helper()
		for _, pr := range pairs {
			d.check(pr[0], pr[1])
		}
		return h.fills
	}
	warm := requery()
	if warm.atoms == 0 || warm.graphs != 1 || warm.rows == 0 {
		t.Fatalf("warm-up fills %+v: want atom trees, one terminal graph, rows", warm)
	}

	// (i) An access-link flap rebuilds nothing shared. Pairs through the
	// victim go nil and come back; the others never notice.
	victim, other := g.Clients[0], g.Clients[1]
	acc := g.AccessLink(victim)
	g.FailLink(acc)
	if p := d.hier.Path(victim, other); p != nil {
		t.Fatalf("path from behind a failed access link: %v", p)
	}
	if p := d.hier.Path(other, victim); p != nil {
		t.Fatalf("path to behind a failed access link: %v", p)
	}
	if got := requery(); got != warm {
		t.Fatalf("access link down: fills %+v -> %+v, want none", warm, got)
	}
	g.RestoreLink(acc)
	if d.hier.Path(victim, other) == nil {
		t.Fatal("no path after the access link came back")
	}
	if got := requery(); got != warm {
		t.Fatalf("access link up: fills %+v -> %+v, want none", warm, got)
	}

	// (ii) A backbone latency change rebuilds the terminal graph and the
	// rows in use, and no atom tree. So does a Transit-Stub failure:
	// gateway trees run over Stub-Stub links only.
	tt := firstLink(t, g, TransitTransit)
	g.SetLatency(tt, 3*g.Links[tt].Delay)
	got := requery()
	if got.atoms != warm.atoms || got.graphs != warm.graphs+1 || got.rows <= warm.rows {
		t.Fatalf("Transit-Transit latency: fills %+v -> %+v, want graph+1, rows refilled, atoms kept", warm, got)
	}
	ts := firstLink(t, g, TransitStub)
	g.FailLink(ts)
	after := requery()
	if after.atoms != got.atoms || after.graphs != got.graphs+1 || after.rows <= got.rows {
		t.Fatalf("Transit-Stub failure: fills %+v -> %+v, want graph+1, rows refilled, atoms kept", got, after)
	}
	g.RestoreLink(ts)
	after = requery()

	// A Stub-Stub change is the one that reaches the gateway trees.
	g.FailLink(firstLink(t, g, StubStub))
	if last := requery(); last.atoms <= after.atoms || last.graphs != after.graphs+1 {
		t.Fatalf("Stub-Stub failure: fills %+v -> %+v, want atoms refilled, graph+1", after, last)
	}
}

// TestHierConcurrentFirstUse has two goroutines that own disjoint
// sources — the clients at even and at odd positions, which share
// destination atoms and entry terminals — issue the first queries of a
// fresh epoch at once, as two shards do after a barrier. Every answer
// must equal a serially warmed router's; run under -race, it shows the
// lazy fills of shared state are published safely.
func TestHierConcurrentFirstUse(t *testing.T) {
	cfg := Sized(3000, 120, MediumBandwidth)
	cfg.Seed = 9
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, serial := hierRouterFor(t, g), hierRouterFor(t, g)
	cl := g.Clients
	want := make([][]int32, len(cl)*len(cl))
	for round := 0; round < 3; round++ {
		// A fresh epoch with every shared table stale; Sync is what the
		// sharded runner calls between windows.
		g.FailLink(firstLink(t, g, StubStub))
		conc.Sync()
		for i, a := range cl {
			for j, b := range cl {
				want[i*len(cl)+j] = serial.Path(a, b)
			}
		}
		var wg sync.WaitGroup
		for part := 0; part < 2; part++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := part; i < len(cl); i += 2 {
					for j, b := range cl {
						got, want := conc.Path(cl[i], b), want[i*len(cl)+j]
						if !slices.Equal(got, want) || (got == nil) != (want == nil) {
							t.Errorf("round %d path(%d,%d): concurrent %v, serial %v", round, cl[i], b, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		g.RestoreLink(firstLink(t, g, StubStub))
	}
}

// TestRouterUnreachableMetrics checks that a partitioned destination
// reads as a useless path, not a perfect one: loss 1 and capacity 0,
// against 0 and +Inf for the empty path from a node to itself.
func TestRouterUnreachableMetrics(t *testing.T) {
	g := genHier(t, 2, 3, 8, 5, 16, 5)
	a, b := g.Clients[0], g.Clients[1]
	g.FailLink(g.AccessLink(b))
	for name, r := range map[string]*Router{"flat": newFlatRouter(g), "hier": hierRouterFor(t, g)} {
		if r.Reachable(a, b) {
			t.Fatalf("%s: client behind a failed access link is reachable", name)
		}
		if got := r.PathLoss(a, b); got != 1 {
			t.Errorf("%s: PathLoss to an unreachable node = %g, want 1", name, got)
		}
		if got := r.Bottleneck(a, b); got != 0 {
			t.Errorf("%s: Bottleneck to an unreachable node = %g, want 0", name, got)
		}
		if got := r.PathLoss(a, a); got != 0 {
			t.Errorf("%s: PathLoss(a,a) = %g, want 0", name, got)
		}
		if got := r.Bottleneck(a, a); !math.IsInf(got, 1) {
			t.Errorf("%s: Bottleneck(a,a) = %g, want +Inf", name, got)
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
	if NewRouter(g).hier != nil {
		t.Fatal("hierarchical backend accepted a client with two access links")
	}
}
