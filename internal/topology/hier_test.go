package topology

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"bullet/internal/sim"
)

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
	a := NewRouter(g)
	b := NewRouter(g)
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
// the answers after it equal the flat reference's.
func TestHierScopedInvalidation(t *testing.T) {
	g := genHier(t, 2, 3, 8, 5, 16, 5)
	d := newDiff(t, g)
	pairs := queryPairs(g)
	requery := func() hierFills {
		t.Helper()
		for _, pr := range pairs {
			d.check(pr[0], pr[1])
		}
		return d.hier.fills
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
	conc, serial := NewRouter(g), NewRouter(g)
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
	r := NewRouter(g)
	if r.Delay(a, b) >= 0 {
		t.Fatal("client behind a failed access link is reachable")
	}
	if got := r.PathLoss(a, b); got != 1 {
		t.Errorf("PathLoss to an unreachable node = %g, want 1", got)
	}
	if got := r.Bottleneck(a, b); got != 0 {
		t.Errorf("Bottleneck to an unreachable node = %g, want 0", got)
	}
	if got := r.PathLoss(a, a); got != 0 {
		t.Errorf("PathLoss(a,a) = %g, want 0", got)
	}
	if got := r.Bottleneck(a, a); !math.IsInf(got, 1) {
		t.Errorf("Bottleneck(a,a) = %g, want +Inf", got)
	}
}

// TestBuilderRejectsContractViolations checks that Build refuses every
// way out of the transit-stub contract with an error naming the link or
// node, so no Graph outside it ever reaches a router — and that it
// accepts clients attached directly to Transit hubs, the shape of the
// PlanetLab topology of fig15.
func TestBuilderRejectsContractViolations(t *testing.T) {
	// Every case starts from Transit 0 - Stub 1 - Stub 2 with client 3
	// on Stub 1 and a second, still unattached client 4.
	cases := []struct {
		name string
		add  func(b *Builder)
		want string // "" when Build must accept
	}{
		{"clients on a transit hub", func(b *Builder) {
			b.AddLink(4, 0, ClientStub, 1000, sim.Millisecond, 0)
		}, ""},
		{"client with two access links", func(b *Builder) {
			b.AddLink(4, 1, ClientStub, 1000, sim.Millisecond, 0)
			b.AddLink(4, 0, ClientStub, 1000, sim.Millisecond, 0)
		}, "client 4 has 2 links"},
		{"client with no access link", func(b *Builder) {}, "client 4 has 0 links"},
		{"client-client link", func(b *Builder) {
			b.AddLink(4, 3, ClientStub, 1000, sim.Millisecond, 0)
		}, "Client-Stub link 3 cannot join"},
		{"Stub-Stub link touching a Transit node", func(b *Builder) {
			b.AddLink(4, 1, ClientStub, 1000, sim.Millisecond, 0)
			b.AddLink(2, 0, StubStub, 1000, sim.Millisecond, 0)
		}, "Stub-Stub link 4 cannot join"},
		{"Transit-Stub link between two Stubs", func(b *Builder) {
			b.AddLink(4, 1, ClientStub, 1000, sim.Millisecond, 0)
			b.AddLink(1, 2, TransitStub, 1000, sim.Millisecond, 0)
		}, "Transit-Stub link 4 cannot join"},
		{"Transit-Transit link touching a Stub", func(b *Builder) {
			b.AddLink(4, 1, ClientStub, 1000, sim.Millisecond, 0)
			b.AddLink(0, 2, TransitTransit, 1000, sim.Millisecond, 0)
		}, "Transit-Transit link 4 cannot join"},
		{"unknown link class", func(b *Builder) {
			b.AddLink(4, 1, ClientStub, 1000, sim.Millisecond, 0)
			b.AddLink(1, 2, numLinkClasses, 1000, sim.Millisecond, 0)
		}, "link 4 has unknown class"},
		{"unknown node kind", func(b *Builder) {
			b.AddLink(4, 1, ClientStub, 1000, sim.Millisecond, 0)
			b.AddNode(Client+1, 3, 0) // no link: only the node pass can see it
		}, "node 5 has unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			b.AddNode(Transit, 0, 0)
			b.AddNode(Stub, 1, 0)
			b.AddNode(Stub, 2, 0)
			b.AddNode(Client, 1, 1)
			b.AddNode(Client, 2, 1)
			b.AddLink(0, 1, TransitStub, 1000, sim.Millisecond, 0)
			b.AddLink(1, 2, StubStub, 1000, sim.Millisecond, 0)
			b.AddLink(3, 1, ClientStub, 1000, sim.Millisecond, 0)
			tc.add(b)
			g, err := b.Build()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Build rejected a graph inside the contract: %v", err)
				}
				// A client on a hub routes like any other.
				if p := NewRouter(g).Path(3, 4); len(p) != 3 {
					t.Fatalf("path client 3 -> client 4 = %v, want the 3 links via the hub", p)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
