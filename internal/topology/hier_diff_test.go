package topology

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// diff holds one graph with the flat reference (flat_test.go) and a
// hierarchical router over it and compares their answers. The flat
// router is the reference: one whole-graph Dijkstra per source, nothing
// shared, nothing scoped, nothing kept.
type diff struct {
	t       testing.TB
	g       *Graph
	flat    flatRouter
	hier    *Router
	routers []int // Transit and Stub node ids
	stubs   []int // Stub node ids, ascending (domains are contiguous)
	// tiesOK lets check pass over a pair whose two answers are distinct
	// live walks of exactly the shortest delay. Only the fuzz target sets
	// it: its generator seeds are unbounded, so a graph with an exact tie
	// can come up, while the deterministic tests have none and must fail
	// on any difference.
	tiesOK bool
}

func newDiff(t testing.TB, g *Graph) *diff {
	t.Helper()
	d := &diff{t: t, g: g, flat: flatRouter{g}, hier: NewRouter(g)}
	for i := range g.Nodes {
		switch g.Nodes[i].Kind {
		case Stub:
			d.stubs = append(d.stubs, i)
			d.routers = append(d.routers, i)
		case Transit:
			d.routers = append(d.routers, i)
		}
	}
	return d
}

// check requires the two routers to agree on from -> each of tos, over
// the links up right now: the same path link by link (nil on both sides
// when unreachable), the same delay and the same reachability.
func (d *diff) check(from int, tos ...int) {
	d.t.Helper()
	ft := d.flat.tree(from)
	for _, to := range tos {
		fp, hp := ft.path(to), d.hier.Path(from, to)
		fd, hd := ft.delay(to), d.hier.Delay(from, to)
		if (fp == nil) != (hp == nil) {
			d.t.Fatalf("path(%d,%d): flat nil=%v, hier nil=%v", from, to, fp == nil, hp == nil)
		}
		if !slices.Equal(fp, hp) {
			if d.tiesOK && hd == fd && pathDelay(d.t, d.g, from, to, hp) == fd {
				continue // an exact tie: both are shortest paths
			}
			d.t.Fatalf("path(%d,%d): flat %v, hier %v", from, to, fp, hp)
		}
		if fd != hd {
			d.t.Fatalf("delay(%d,%d): flat %d, hier %d", from, to, fd, hd)
		}
		hr := hd >= 0
		if hr != (fp != nil) {
			d.t.Fatalf("reachable(%d,%d): flat %v, hier %v", from, to, fp != nil, hr)
		}
		if hp == nil {
			if hd != -1 {
				d.t.Fatalf("unreachable (%d,%d): hier delay %d, want -1", from, to, hd)
			}
			continue
		}
		if got := pathDelay(d.t, d.g, from, to, hp); got != hd {
			d.t.Fatalf("path(%d,%d) sums to %d, delay says %d", from, to, got, hd)
		}
	}
}

// mutate applies one graph mutation chosen by op, with a and b as its
// operands. Every route-affecting mutator is covered, on every link
// class.
func (d *diff) mutate(op, a, b int) {
	g := d.g
	lid := a % len(g.Links)
	switch op % 6 {
	case 0:
		g.FailLink(lid)
	case 1:
		g.RestoreLink(lid)
	case 2:
		if g.Links[lid].Down {
			g.RestoreLink(lid)
		} else {
			g.FailLink(lid)
		}
	case 3:
		// A run of consecutive stub nodes: about one stub domain, often
		// straddling two.
		lo := a % len(d.stubs)
		hi := min(lo+1+b%16, len(d.stubs))
		g.Partition(d.stubs[lo:hi])
	case 4:
		g.Heal()
	case 5:
		g.FailLink(g.AccessLink(g.Clients[a%len(g.Clients)]))
	}
}

// round issues queries from nsrc client and nsrc router sources (the
// second is the shape of an in-flight reroute) to ndst client
// destinations and one router each, plus both directions of a pair
// made unreachable by a failed access link.
func (d *diff) round(rng *rand.Rand, nsrc, ndst int) {
	d.t.Helper()
	g := d.g
	cl := g.Clients
	dsts := make([]int, 0, ndst+2)
	for i := 0; i < 2*nsrc; i++ {
		src := cl[rng.Intn(len(cl))]
		if i%2 == 1 {
			src = d.routers[rng.Intn(len(d.routers))]
		}
		dsts = dsts[:0]
		for j := 0; j < ndst; j++ {
			dsts = append(dsts, cl[rng.Intn(len(cl))])
		}
		dsts = append(dsts, d.routers[rng.Intn(len(d.routers))], src)
		d.check(src, dsts...)
	}
	victim, other := cl[rng.Intn(len(cl))], cl[rng.Intn(len(cl))]
	acc := g.AccessLink(victim)
	wasDown := g.Links[acc].Down
	g.FailLink(acc)
	if victim != other {
		if p := d.flat.tree(victim).path(other); p != nil {
			d.t.Fatalf("flat path from client %d behind a failed access link: %v", victim, p)
		}
		d.check(victim, other)
		d.check(other, victim)
	}
	if !wasDown {
		g.RestoreLink(acc)
	}
}

// TestHierMatchesFlat is the exactness pin of the hierarchical
// backend: on generated transit-stub topologies of three sizes, under
// rounds of random link failures, restorations, toggles, partitions
// and heals, every path it returns equals the flat router's link by
// link.
func TestHierMatchesFlat(t *testing.T) {
	sizes := []struct {
		nodes, clients, seeds, nsrc, ndst int
	}{
		{300, 30, 12, 10, 12},
		{3000, 120, 10, 8, 12},
		{20000, 1000, 10, 3, 16},
	}
	for _, sz := range sizes {
		if testing.Short() && sz.nodes > 3000 {
			continue // ~4 ms per flat source tree; the headline CI step runs it
		}
		for seed := int64(1); seed <= int64(sz.seeds); seed++ {
			t.Run(fmt.Sprintf("n%d/seed%d", sz.nodes, seed), func(t *testing.T) {
				cfg := Sized(sz.nodes, sz.clients, MediumBandwidth)
				cfg.Seed = seed
				g, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := newDiff(t, g)
				rng := rand.New(rand.NewSource(seed*1000 + int64(sz.nodes)))
				d.round(rng, sz.nsrc, sz.ndst)
				for r := 0; r < 4; r++ {
					for m := 0; m < 5; m++ {
						d.mutate(rng.Intn(6), rng.Int(), rng.Int())
					}
					d.round(rng, sz.nsrc, sz.ndst)
				}
			})
		}
	}
}

// FuzzHierMatchesFlat drives the same differential from a fuzzed
// (seed, size, mutation script): the script is read four bytes at a
// time as (op, operand, operand), and after every fourth mutation and
// at the end the routers answer a fixed set of queries. It alone sets
// diff.tiesOK.
func FuzzHierMatchesFlat(f *testing.F) {
	f.Add(int64(1), uint16(120), []byte{})
	f.Add(int64(42), uint16(300), []byte{0, 1, 2, 3, 5, 9, 9, 9, 3, 40, 0, 7, 2, 17, 0, 200, 4, 0, 0, 0})
	f.Add(int64(7), uint16(900), []byte{3, 0, 5, 15, 3, 1, 0, 3, 0, 200, 1, 1, 4, 0, 0, 0, 1, 200, 1, 0})
	// An exact tie as generated: Stub-Stub link 46 (28-39, 676,366 ns)
	// plus Transit-Stub link 49 (28-2, 866,532 ns) sum to Transit-Stub
	// link 50 (39-2, 1,542,898 ns), and the two routers pick one each.
	f.Add(int64(24), uint16(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, size uint16, script []byte) {
		nodes := 60 + int(size)%1500
		cfg := Sized(nodes, nodes/10+2, MediumBandwidth)
		cfg.Seed = seed
		g, err := Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		d := newDiff(t, g)
		d.tiesOK = true
		rng := rand.New(rand.NewSource(seed))
		if len(script) > 4*64 {
			script = script[:4*64]
		}
		for n := 0; len(script) >= 4; n++ {
			a := int(binary.LittleEndian.Uint16(script[1:3]))
			d.mutate(int(script[0]), a, int(script[3]))
			script = script[4:]
			if n%4 == 3 {
				d.round(rng, 2, 4)
			}
		}
		d.round(rng, 3, 6)
	})
}
