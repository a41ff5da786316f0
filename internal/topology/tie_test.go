package topology

import (
	"fmt"
	"slices"
	"testing"

	"bullet/internal/sim"
)

// refHPath expands the shortest H path t1 -> t2 the way the router did
// when it stored, per row cell, the index of the edge that last
// improved it: a Dijkstra over hadj, identical to fillRow's, recording
// that index, and the chain expanded from it. hadj must be current.
func refHPath(r *Router, t1, t2 int32) []int32 {
	T := r.nterm
	dist := make([]int64, T)
	predT := make([]int32, T)
	predE := make([]int32, T)
	for i := range dist {
		dist[i], predT[i], predE[i] = unreachable, -1, -1
	}
	dist[t1] = 0
	q := pq{{node: t1}}
	for len(q) > 0 {
		it := q.pop()
		if dist[it.node] != it.dist {
			continue
		}
		for ei, e := range r.hadj[it.node] {
			nd := it.dist + e.w
			if dist[e.to] == unreachable || nd < dist[e.to] {
				dist[e.to], predT[e.to], predE[e.to] = nd, it.node, int32(ei)
				q.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	var chain []hedge
	for x := t2; x != t1; x = predT[x] {
		chain = append(chain, r.hadj[predT[x]][predE[x]])
	}
	var p []int32
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		if e.link >= 0 {
			p = append(p, e.link)
			continue
		}
		p = append(p, e.tsA)
		if e.gwA != e.gwB {
			p = r.appendGateway(p, r.atoms[e.atom].gws[e.gwB].node, e.gwA, true)
		}
		p = append(p, e.tsB)
	}
	return p
}

// checkHPaths holds appendHPath to refHPath for every pair of connected
// terminals and returns the number of pairs compared.
func checkHPaths(t *testing.T, r *Router) int {
	t.Helper()
	pairs := 0
	for t1 := range int32(r.nterm) {
		row := r.row(t1)
		for t2 := range int32(r.nterm) {
			if row[t2] == unreachable {
				continue
			}
			got, want := r.appendHPath(nil, t1, t2), refHPath(r, t1, t2)
			if !slices.Equal(got, want) {
				t.Fatalf("H path %d -> %d: %v, the stored-edge walk gives %v", t1, t2, got, want)
			}
			pairs++
		}
	}
	return pairs
}

// The router rederives each shortest-path edge instead of storing its
// index. On a graph built to tie — parallel Transit-Transit links and
// atom traversals of equal weight, a lighter parallel edge listed after
// a heavier one, and two equal two-hop routes — the edges it picks,
// and so its paths, must be the ones the stored index named. The fuzz
// differential tolerates ties and cannot pin this choice.
func TestHPathTiesMatchStoredEdge(t *testing.T) {
	ms := func(x int) sim.Duration { return sim.Duration(x) * sim.Millisecond }
	b := NewBuilder()
	tr := make([]int, 4)
	for i := range tr {
		tr[i] = b.AddNode(Transit, float64(i), 0)
	}
	stub := func() int { return b.AddNode(Stub, 0, 1) }
	link := func(a, c int, class LinkClass, d int) int { return b.AddLink(a, c, class, 1000, ms(d), 0) }
	// T0 - T1: a backbone link of 10 ms, then two atom traversals of
	// 10 ms each, through two gateways and through one.
	tt01 := link(tr[0], tr[1], TransitTransit, 10)
	s0, s1 := stub(), stub()
	link(tr[0], s0, TransitStub, 3)
	link(s0, s1, StubStub, 4)
	link(s1, tr[1], TransitStub, 3)
	s2 := stub()
	link(tr[0], s2, TransitStub, 5)
	link(s2, tr[1], TransitStub, 5)
	// T2 - T3: a backbone link of 9 ms, and a later atom traversal of 8.
	link(tr[2], tr[3], TransitTransit, 9)
	s3 := stub()
	ts23a := link(tr[2], s3, TransitStub, 4)
	ts23b := link(s3, tr[3], TransitStub, 4)
	// T1 -> T3 at 13 ms two ways: over T2 (5 + 8), and through an atom
	// whose edge T1 lists, so Dijkstra reaches T3 from T1 first and T2's
	// equal offer does not replace it.
	link(tr[1], tr[2], TransitTransit, 5)
	s4 := stub()
	ts13a := link(tr[1], s4, TransitStub, 6)
	ts13b := link(s4, tr[3], TransitStub, 7)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(g)
	for _, c := range []struct {
		from, to int
		want     []int32
	}{
		// Three 10 ms routes: the backbone link is listed first.
		{tr[0], tr[1], []int32{int32(tt01)}},
		// The later, lighter atom traversal replaces the backbone link.
		{tr[2], tr[3], []int32{int32(ts23a), int32(ts23b)}},
		// T1 -> T3 ties at 13 ms over T2 and through the atom of s4.
		{tr[1], tr[3], []int32{int32(ts13a), int32(ts13b)}},
		{tr[3], tr[1], []int32{int32(ts13b), int32(ts13a)}},
	} {
		if got := r.Path(c.from, c.to); !slices.Equal(got, c.want) {
			t.Errorf("path %d -> %d = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if n := checkHPaths(t, r); n != 16 {
		t.Fatalf("compared %d terminal pairs, want 16", n)
	}
}

// On generated graphs with every delay rounded down to an even number
// of milliseconds, equal-weight H paths are common; the rederived edges
// must still be the stored ones for every terminal pair.
func TestHPathRoundedDelaysMatchStoredEdge(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g := genHier(t, 3, 4, 6, 4, 20, seed)
			for i := range g.Links {
				l := &g.Links[i]
				l.Delay = max(sim.Millisecond, l.Delay/(2*sim.Millisecond)*(2*sim.Millisecond))
			}
			if n := checkHPaths(t, NewRouter(g)); n == 0 {
				t.Fatal("no terminal pair compared")
			}
		})
	}
}
