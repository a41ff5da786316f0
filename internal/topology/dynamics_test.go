package topology

import (
	"testing"

	"bullet/internal/sim"
)

// small generated graph shared by the dynamics tests.
func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := Generate(Config{
		TransitDomains: 2, TransitPerDomain: 3, StubDomains: 4, StubDomainSize: 5,
		Clients: 10, ExtraEdgeFrac: 0.3, Bandwidth: MediumBandwidth, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMutatorsAdvanceEpoch(t *testing.T) {
	g := testGraph(t)
	e0 := g.Epoch()

	// Bandwidth and loss changes do not affect routes: no epoch bump.
	g.SetBandwidth(0, 1234)
	g.ScaleBandwidth(0, 0.5)
	g.SetLoss(0, 0.1)
	if g.Epoch() != e0 {
		t.Fatalf("bandwidth/loss mutation advanced epoch %d -> %d", e0, g.Epoch())
	}
	if got := g.Links[0].Kbps(); got != 617 {
		t.Errorf("Kbps after SetBandwidth+Scale = %g, want 617", got)
	}
	if g.Links[0].Loss != 0.1 {
		t.Errorf("Loss = %g, want 0.1", g.Links[0].Loss)
	}

	// Latency and up/down changes do.
	g.SetLatency(0, 5*sim.Millisecond)
	if g.Epoch() != e0+1 {
		t.Fatalf("SetLatency epoch = %d, want %d", g.Epoch(), e0+1)
	}
	g.SetLatency(0, 5*sim.Millisecond) // no-op: same value
	if g.Epoch() != e0+1 {
		t.Fatal("no-op SetLatency advanced epoch")
	}
	// A link delay stays positive: zero is refused like a negative one.
	for _, d := range []sim.Duration{0, -sim.Millisecond} {
		g.SetLatency(0, d)
		if g.Links[0].Delay != 5*sim.Millisecond || g.Epoch() != e0+1 {
			t.Fatalf("SetLatency(%d): delay %d, epoch %d; want it ignored", d, g.Links[0].Delay, g.Epoch())
		}
	}
	g.FailLink(0)
	if !g.Links[0].Down || g.Epoch() != e0+2 {
		t.Fatalf("FailLink: down=%v epoch=%d", g.Links[0].Down, g.Epoch())
	}
	g.FailLink(0) // idempotent
	if g.Epoch() != e0+2 {
		t.Fatal("idempotent FailLink advanced epoch")
	}
	g.RestoreLink(0)
	if g.Links[0].Down || g.Epoch() != e0+3 {
		t.Fatalf("RestoreLink: down=%v epoch=%d", g.Links[0].Down, g.Epoch())
	}
	g.RestoreLink(0) // idempotent
	if g.Epoch() != e0+3 {
		t.Fatal("idempotent RestoreLink advanced epoch")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	g := testGraph(t)
	client := g.Clients[0]
	lid := g.AccessLink(client)
	if lid < 0 {
		t.Fatal("client has no single access link")
	}

	// Independently failed links must survive Heal.
	other := g.AccessLink(g.Clients[1])
	g.FailLink(other)

	cut := g.Partition([]int{client})
	if cut != 1 {
		t.Fatalf("Partition cut %d links, want 1 (the access link)", cut)
	}
	if !g.Links[lid].Down {
		t.Fatal("access link not down after Partition")
	}
	g.Heal()
	if g.Links[lid].Down {
		t.Fatal("access link still down after Heal")
	}
	if !g.Links[other].Down {
		t.Fatal("Heal resurrected an independently failed link")
	}

	// Heal with no partition is a no-op.
	e := g.Epoch()
	g.Heal()
	if g.Epoch() != e {
		t.Fatal("empty Heal advanced epoch")
	}
}

// An explicit FailLink on a link a Partition already cut claims it
// permanently: Heal must not resurrect it.
func TestFailLinkAfterPartitionSurvivesHeal(t *testing.T) {
	g := testGraph(t)
	client := g.Clients[0]
	lid := g.AccessLink(client)
	if cut := g.Partition([]int{client}); cut != 1 {
		t.Fatalf("Partition cut %d links, want 1", cut)
	}
	g.FailLink(lid) // now an explicit, permanent failure
	g.Heal()
	if !g.Links[lid].Down {
		t.Fatal("Heal resurrected a link explicitly failed via FailLink")
	}
}

// Partition / RestoreLink / Partition must not leave stale duplicate
// cut entries behind that would let Heal undo a later explicit
// FailLink.
func TestRestoreLinkClearsPartitionCut(t *testing.T) {
	g := testGraph(t)
	client := g.Clients[0]
	lid := g.AccessLink(client)
	g.Partition([]int{client})
	g.RestoreLink(lid) // back up; cut entry must be dropped
	if g.Links[lid].Down {
		t.Fatal("RestoreLink left the link down")
	}
	g.Partition([]int{client}) // cut again
	g.FailLink(lid)            // claim it explicitly
	g.Heal()
	if !g.Links[lid].Down {
		t.Fatal("stale cut entry let Heal resurrect an explicitly failed link")
	}
}

// findLink returns the ID of a link between nodes a and b, or -1 if no
// such link exists. If parallel links exist, the lowest ID wins.
func findLink(g *Graph, a, b int) int {
	best := -1
	for _, he := range g.adj[a] {
		if int(he.to) == b && (best < 0 || int(he.link) < best) {
			best = int(he.link)
		}
	}
	return best
}

func TestFindLink(t *testing.T) {
	g := testGraph(t)
	l := &g.Links[0]
	if got := findLink(g, l.A, l.B); got != l.ID {
		t.Errorf("FindLink(%d,%d) = %d, want %d", l.A, l.B, got, l.ID)
	}
	if got := findLink(g, l.B, l.A); got != l.ID {
		t.Errorf("FindLink reversed = %d, want %d", got, l.ID)
	}
	// Clients are degree one: no client-client link exists.
	if got := findLink(g, g.Clients[0], g.Clients[1]); got != -1 {
		t.Errorf("FindLink between clients = %d, want -1", got)
	}
}

func TestRouterReroutesAfterFailure(t *testing.T) {
	g := testGraph(t)
	r := NewRouter(g)
	from, to := g.Clients[0], g.Clients[1]

	p0 := r.Path(from, to)
	if len(p0) == 0 {
		t.Fatal("no initial path")
	}
	d0 := r.Delay(from, to)

	// Fail a mid-path link (not the degree-one access links, so an
	// alternative can exist). If none does, the route must be nil.
	var victim int32 = -1
	for _, lid := range p0 {
		l := &g.Links[lid]
		if l.Class != ClientStub {
			victim = lid
			break
		}
	}
	if victim < 0 {
		t.Skip("path is all access links")
	}
	g.FailLink(int(victim))
	p1 := r.Path(from, to)
	for _, lid := range p1 {
		if lid == victim {
			t.Fatal("rerouted path still uses the failed link")
		}
		if g.Links[lid].Down {
			t.Fatal("rerouted path uses a down link")
		}
	}
	if p1 != nil && r.Delay(from, to) < d0 {
		t.Errorf("detour is shorter than the original path: %v < %v", r.Delay(from, to), d0)
	}

	// Restoring converges back to the original route and delay.
	g.RestoreLink(int(victim))
	p2 := r.Path(from, to)
	if len(p2) != len(p0) {
		t.Fatalf("restored path has %d hops, want %d", len(p2), len(p0))
	}
	for i := range p2 {
		if p2[i] != p0[i] {
			t.Fatalf("restored path differs at hop %d", i)
		}
	}
	if d := r.Delay(from, to); d != d0 {
		t.Errorf("restored delay %v, want %v", d, d0)
	}
}

func TestRouterPartitionUnreachable(t *testing.T) {
	g := testGraph(t)
	r := NewRouter(g)
	from, to := g.Clients[0], g.Clients[1]
	if r.Delay(from, to) < 0 {
		t.Fatal("clients initially unreachable")
	}
	g.Partition([]int{to})
	if r.Delay(from, to) >= 0 {
		t.Fatal("partitioned client still reachable")
	}
	if p := r.Path(from, to); p != nil {
		t.Fatalf("Path to partitioned client = %v, want nil", p)
	}
	g.Heal()
	if r.Delay(from, to) < 0 {
		t.Fatal("client unreachable after Heal")
	}
}
