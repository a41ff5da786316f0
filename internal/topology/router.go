package topology

import (
	"math"

	"bullet/internal/sim"
)

// Router answers shortest-path routing queries over a Graph, modeling
// IP unicast routing (assumption 1 of §4.1: the routing path between
// two overlay participants is fixed as long as the underlying network
// is static). Paths are shortest by propagation delay; failed (Down)
// links are never used.
//
// Two backends answer the same queries with the same bytes. Every
// topology that keeps the transit-stub contract — every generated one —
// is served by the hierarchical backend (hier.go), which shares
// shortest-path work between sources by routing area. A handcrafted
// Builder graph outside the contract falls back to the flat backend
// below: one whole-graph shortest-path tree per source, computed lazily,
// which is also the reference the tests hold the hierarchical backend
// against. Which one serves is a property of the graph (validateHier),
// not of its size and not a setting.
//
// Neither backend keeps a Go map: the flat one memoizes the materialized
// link-id path per (source, client destination) in slices indexed by
// node id, the hierarchical one in a small open-addressed table per
// source, so the steady-state cost of a Path query is a couple of loads
// and the hot forwarding path never recomputes or reallocates a route.
//
// Caches are epoch-versioned: every query compares the router's epoch
// against the graph's route epoch (advanced by runtime mutations such
// as FailLink or SetLatency) and invalidates when it moved — the flat
// backend every tree, the hierarchical one what the changed link class
// can have reached — so routes re-converge instantly, modeling an
// idealized routing protocol with zero convergence delay. On a static
// graph the check costs two loads and the behavior is identical to a
// fully memoized router.
type Router struct {
	g     *Graph
	epoch uint64 // graph route epoch the caches reflect
	// hier is the hierarchical backend; when non-nil it answers every
	// query and the flat tables below are never allocated.
	hier      *hierRouter
	trees     []*spTree // indexed by source node id; nil until first query
	clientIdx []int32   // node id -> index into g.Clients, or -1
}

type spTree struct {
	prevLink []int32 // incoming link on the shortest path, -1 at source
	prevNode []int32
	dist     []int64   // nanoseconds of propagation delay; -1 = unreachable
	paths    [][]int32 // memoized Path results, indexed by clientIdx
}

// emptyPath is the shared result for from == to queries, distinct from
// the nil "unreachable" result.
var emptyPath = []int32{}

// NewRouter creates a router for g. The transit-stub contract is
// checked here, once: no mutator changes a node kind or a link class.
func NewRouter(g *Graph) *Router {
	if h := newHier(g); h != nil {
		return &Router{g: g, epoch: g.epoch, hier: h}
	}
	return newFlatRouter(g)
}

// newFlatRouter returns a router that answers every query from the
// flat per-source trees, whatever the topology: the fallback for graphs
// outside the transit-stub contract, and the reference the differential
// tests hold the hierarchical backend against.
func newFlatRouter(g *Graph) *Router {
	idx := make([]int32, len(g.Nodes))
	for i := range idx {
		idx[i] = -1
	}
	for i, c := range g.Clients {
		idx[c] = int32(i)
	}
	return &Router{g: g, trees: make([]*spTree, len(g.Nodes)), clientIdx: idx, epoch: g.epoch}
}

// Graph returns the underlying topology.
func (r *Router) Graph() *Graph { return r.g }

type pqItem struct {
	node int32
	dist int64
}

// pq is a binary min-heap of pqItem ordered by dist. push and pop are
// transliterations of container/heap's up/down sifts specialized to the
// concrete type: the heap used to satisfy heap.Interface, and the
// `any`-boxing on every Push/Pop accounted for the large majority of
// the process's steady-state allocations (each queue entry escaped to
// the heap as a 16-byte box). The sift algorithm — including the swap
// sequences, and therefore the pop order of equal-dist entries — is
// bit-identical to container/heap's, which keeps every shortest-path
// tree, and hence every golden trace, unchanged.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

const unreachable = int64(-1)

// Sync applies any pending epoch invalidation eagerly. The sharded
// runner calls it single-threaded at every barrier, immediately after
// the global events that can mutate the graph: during the parallel
// shard windows the epoch is then guaranteed stable, so concurrent
// queries from shard goroutines never race on cache invalidation. (A
// source's tree or memo is only ever built and read by the shard that
// owns the source node; the hierarchical backend's shared tables are
// filled under its lock, see hier.go.)
func (r *Router) Sync() { r.ensureEpoch() }

// ensureEpoch invalidates the caches when the graph's route epoch has
// advanced since they were filled.
func (r *Router) ensureEpoch() {
	if r.g.epoch != r.epoch {
		r.invalidate()
	}
}

func (r *Router) invalidate() {
	r.epoch = r.g.epoch
	if r.hier != nil {
		r.hier.invalidate()
		return
	}
	clear(r.trees)
}

func (r *Router) tree(src int) *spTree {
	r.ensureEpoch()
	if t := r.trees[src]; t != nil {
		return t
	}
	n := len(r.g.Nodes)
	t := &spTree{
		prevLink: make([]int32, n),
		prevNode: make([]int32, n),
		dist:     make([]int64, n),
		paths:    make([][]int32, len(r.g.Clients)),
	}
	for i := range t.dist {
		t.dist[i] = unreachable
		t.prevLink[i] = -1
		t.prevNode[i] = -1
	}
	t.dist[src] = 0
	q := pq{{node: int32(src), dist: 0}}
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
	r.trees[src] = t
	return t
}

// Path returns the link IDs along the shortest path from -> to, in
// traversal order. It returns nil if to is unreachable, and an empty
// slice if from == to. The returned slice is owned by the router's
// cache and shared between callers: treat it as immutable.
func (r *Router) Path(from, to int) []int32 {
	if from == to {
		return emptyPath
	}
	if r.hier != nil {
		r.ensureEpoch()
		return r.hier.lookup(from, to).path
	}
	t := r.tree(from)
	if t.dist[to] == unreachable {
		return nil
	}
	ci := r.clientIdx[to]
	if ci >= 0 {
		if p := t.paths[ci]; p != nil {
			return p
		}
	}
	p := materialize(t, int32(from), int32(to))
	if ci >= 0 {
		t.paths[ci] = p
	}
	return p
}

// materialize walks the predecessor chain twice: once to count hops,
// once to fill front-to-back, so no reversal pass is needed.
func materialize(t *spTree, from, to int32) []int32 {
	hops := 0
	for n := to; n != from; n = t.prevNode[n] {
		hops++
	}
	p := make([]int32, hops)
	for n := to; n != from; n = t.prevNode[n] {
		hops--
		p[hops] = t.prevLink[n]
	}
	return p
}

// Delay returns the one-way propagation delay of the shortest path.
func (r *Router) Delay(from, to int) sim.Duration {
	if from == to {
		return 0
	}
	var d int64
	if r.hier != nil {
		r.ensureEpoch()
		d = r.hier.lookup(from, to).dist
	} else {
		d = r.tree(from).dist[to]
	}
	if d == unreachable {
		return -1
	}
	return sim.Duration(d)
}

// Reachable reports whether to is reachable from from.
func (r *Router) Reachable(from, to int) bool {
	return r.Delay(from, to) >= 0
}

// PathLoss returns the end-to-end loss probability of the path
// (1 - prod(1-l_e)), per §4.1's l(o) definition: 0 for the empty path
// (from == to), 1 when to is unreachable.
func (r *Router) PathLoss(from, to int) float64 {
	path := r.Path(from, to)
	if path == nil {
		return 1
	}
	keep := 1.0
	for _, lid := range path {
		keep *= 1 - r.g.Links[lid].Loss
	}
	return 1 - keep
}

// Bottleneck returns the minimum link capacity (bytes/s) along the path:
// +Inf for the empty path (from == to), 0 when to is unreachable.
func (r *Router) Bottleneck(from, to int) float64 {
	path := r.Path(from, to)
	if path == nil {
		return 0
	}
	min := math.Inf(1)
	for _, lid := range path {
		if c := r.g.Links[lid].Bytes; c < min {
			min = c
		}
	}
	return min
}
