package topology

import (
	"fmt"
	"slices"
	"testing"

	"bullet/internal/sim"
)

// flatRouter is the reference the differential tests hold Router
// against: one Dijkstra over the whole graph per source, reading link
// state live. It knows nothing of node kinds, link classes or routing
// areas, keeps no state between calls — there is no cache to go stale
// and no epoch to track — and shares only the heap (pq), emptyPath and
// unreachable with production. Equal-delay ties break by the heap's pop
// order, which is what makes its paths comparable link by link.
type flatRouter struct{ g *Graph }

// flatTree is the shortest-path tree from one source over the links
// that were up when it was computed.
type flatTree struct {
	src                int32
	dist               []int64 // nanoseconds of propagation delay, or unreachable
	prevLink, prevNode []int32 // incoming link and its far end; -1 at the source
}

func (r flatRouter) tree(src int) *flatTree {
	n := len(r.g.Nodes)
	t := &flatTree{
		src:      int32(src),
		dist:     make([]int64, n),
		prevLink: make([]int32, n),
		prevNode: make([]int32, n),
	}
	for i := range t.dist {
		t.dist[i] = unreachable
		t.prevLink[i] = -1
		t.prevNode[i] = -1
	}
	t.dist[src] = 0
	q := pq{{node: t.src, dist: 0}}
	for len(q) > 0 {
		it := q.pop()
		if t.dist[it.node] != it.dist {
			continue // stale entry
		}
		for _, he := range r.g.adj[it.node] {
			l := &r.g.Links[he.link]
			if l.Down {
				continue
			}
			nd := it.dist + int64(l.Delay)
			if t.dist[he.to] == unreachable || nd < t.dist[he.to] {
				t.dist[he.to] = nd
				t.prevLink[he.to] = he.link
				t.prevNode[he.to] = it.node
				q.push(pqItem{node: he.to, dist: nd})
			}
		}
	}
	return t
}

// path has Router.Path's contract: nil when to is unreachable, the
// empty path when it is the source.
func (t *flatTree) path(to int) []int32 {
	if int32(to) == t.src {
		return emptyPath
	}
	if t.dist[to] == unreachable {
		return nil
	}
	var p []int32
	for n := int32(to); n != t.src; n = t.prevNode[n] {
		p = append(p, t.prevLink[n])
	}
	slices.Reverse(p)
	return p
}

// delay has Router.Delay's contract: -1 when to is unreachable.
func (t *flatTree) delay(to int) sim.Duration { return sim.Duration(t.dist[to]) }

// scaleSizes are the node and client counts of experiments.Small,
// Medium, XL, PaperScale and Mega (this package cannot import them).
var scaleSizes = [][2]int{{1500, 40}, {5000, 150}, {10000, 400}, {20000, 1000}, {100000, 10000}}

// TestGenerateKeepsContract checks that the generator never leaves the
// transit-stub contract the router's decomposition relies on: at the
// node and client counts of every experiments scale, and at the three
// sizes TestHierMatchesFlat routes, over seeds and the Table 1
// bandwidth profiles.
func TestGenerateKeepsContract(t *testing.T) {
	check := func(t *testing.T, nodes, clients int, bw BandwidthProfile, seed int64) {
		t.Helper()
		cfg := Sized(nodes, clients, bw)
		cfg.Seed = seed
		// Generate ends on validateHier, so its error is the assertion.
		if _, err := Generate(cfg); err != nil {
			t.Fatalf("Generate(%d, %d, %s, seed %d): %v", nodes, clients, bw.Name, seed, err)
		}
	}
	for _, sc := range scaleSizes {
		if testing.Short() && sc[0] > 20000 {
			continue
		}
		check(t, sc[0], sc[1], MediumBandwidth, 42)
	}
	for _, sz := range [][2]int{{300, 30}, {3000, 120}, {20000, 1000}} {
		for _, bw := range []BandwidthProfile{LowBandwidth, MediumBandwidth, HighBandwidth} {
			t.Run(fmt.Sprintf("n%d/%s", sz[0], bw.Name), func(t *testing.T) {
				for seed := int64(1); seed <= 10; seed++ {
					check(t, sz[0], sz[1], bw, seed)
				}
			})
		}
	}
}
