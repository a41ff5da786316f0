package topology

import (
	"math"
	"sync"
	"sync/atomic"

	"bullet/internal/sim"
)

// Router answers shortest-path routing queries over a Graph, modeling
// IP unicast routing (assumption 1 of §4.1: the routing path between
// two overlay participants is fixed as long as the underlying network
// is static). Paths are shortest by propagation delay; failed (Down)
// links are never used.
//
// One Dijkstra over the whole graph per source — the flat reference the
// tests keep (flat_test.go) — costs 0.85 ms and 102 KB at 5,000 nodes,
// ~100 ms and ~2.4 MB at 100,000, all of it dropped on every route
// change. The router instead shares shortest-path work between sources
// by routing area, using the transit-stub contract that every Graph
// keeps (validateHier, enforced by Generate and Builder.Build) and that
// Table 1 describes:
//
//   - clients are degree-one leaves behind a single access link;
//   - stub atoms — the connected components of Stub nodes over
//     Stub-Stub links — touch the rest of the world only through
//     Transit-Stub links at gateway nodes (a simple path cannot pass
//     through a degree-one client, so there is no other way in);
//   - the backbone is the Transit nodes and Transit-Transit links.
//
// Any simple path therefore decomposes into backbone links and maximal
// stub-atom traversals, each entering and leaving an atom through
// Transit-Stub links. The terminal graph H — one vertex per Transit
// node, real edges for Transit-Transit links, and a virtual edge for
// every (enter, leave) Transit-Stub pair of every atom, weighted by
// the intra-atom shortest gateway-to-gateway distance — preserves
// transit-to-transit distances exactly: every H edge corresponds to a
// real path, and every real path's atom traversals are at least their
// atom's virtual-edge weight. A router-to-router query then minimizes
// entry(u) + dist_H + exit(v) over the (gateway, Transit-Stub link)
// options of each endpoint's atom, against the pure intra-atom
// distance when both ends share an atom; client queries add the unique
// access links on both sides. Every piece is a deterministic function
// of the graph, so answers are independent of query order — the
// byte-identity contract of the sharded runner rests on that — and
// TestHierMatchesFlat and FuzzHierMatchesFlat hold every path equal,
// link by link, to the flat reference's.
//
// The router is split the way link-state routing splits a network into
// areas. Structure — terminal and atom indexing, gateway lists —
// depends only on node kinds and link classes, which no mutator
// changes: NewRouter derives it once, in O(nodes + links), and
// allocates every shared table. State depends on which links are up
// and how long they are, and is filled on first use, into those tables:
//
//   - an atom's gateway trees, when a query first enters or leaves the
//     atom (all atoms with two or more gateways when H is built);
//   - H, when the first query crosses the backbone;
//   - row t of the terminal-to-terminal tables (one Dijkstra over H),
//     when a source first enters the backbone at terminal t;
//   - a source's memo of answered (destination, distance, path)
//     queries — a small open-addressed table, no Go map — which is all
//     a warm Path or Delay reads: a couple of loads, nothing recomputed
//     or reallocated on the hot forwarding path.
//
// State is epoch-versioned: every query compares the router's epoch
// against the graph's route epoch (advanced by runtime mutations such
// as FailLink or Partition) and invalidates when it moved, so routes
// re-converge instantly, modeling an idealized routing protocol with
// zero convergence delay; on a static graph the check costs two loads.
// A route change drops only what it can have reached. The graph counts
// route-affecting changes per link class, and invalidate compares: a
// Client-Stub change (an access link flap — endpoints read their
// access link live) drops the memos and nothing else; a Transit-Transit
// or Transit-Stub change also drops H and the rows but keeps every
// gateway tree, which run over Stub-Stub links only; a Stub-Stub change
// drops those too. Dropping is a generation bump; nothing is freed and
// nothing refilled until a query needs it.
//
// Shared state is read by every simulation shard and is a pure function
// of (graph, route epoch). Generations move only in invalidate, which
// runs single-threaded (Sync at a window barrier, or the serial
// engine); fills take mu and publish through an atomic generation
// stamp, which is all the fast path reads. A source's memo and
// same-atom tree are touched only by the shard that owns the source
// node.
//
// Table storage is T² × 12 B for T terminals (2% of the routers:
// 0.14 MB at 5,000 nodes, 2.1 MB at 20,000, 19.6 MB at 60,000, 39 MB
// at 100,000), reserved at construction and touched row by row as rows
// fill: a distance and a predecessor terminal per cell. The edge into
// a terminal is not stored; a shortest-path tree can be read back from
// its distances, so the cold path rederives it (predEdge).
type Router struct {
	g *Graph

	// Structure: fixed at construction.
	atomOf    []int32 // node -> atom index, -1 for Transit and Client
	atomLocal []int32 // node -> local index within its atom
	atoms     []hatom
	termIdx   []int32 // node -> terminal index, -1 for non-Transit
	nterm     int     // terminals: the Transit nodes

	// Generations: written by invalidate only.
	epoch   uint64                 // graph route epoch the state reflects: owner of the memos
	seen    [numLinkClasses]uint64 // graph class epochs the state reflects
	atomGen uint32                 // moves when gateway trees go stale
	hGen    uint32                 // moves when H and the rows go stale

	// Shared state, filled under mu and published through hatom.gen and
	// rowGen.
	mu             sync.Mutex
	q              pq // Dijkstra heap storage, reused across fills
	gdist          []int64
	gprevL, gprevN []int32 // link toward the root (-1 at root/unreached); parent's local index
	hadj           [][]hedge
	hBuilt         uint32          // hGen that hadj reflects
	rowGen         []atomic.Uint32 // per terminal: hGen its row reflects
	hdist          []int64         // [from terminal * T + to terminal]
	hpredT         []int32         // predecessor terminal on the shortest path (its edge: predEdge)
	fills          hierFills

	srcs []*hsrc // per-source state by node id, nil until the node first asks
}

// emptyPath is the shared result for from == to queries, distinct from
// the nil "unreachable" result.
var emptyPath = []int32{}

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
// queries from shard goroutines never race on invalidation.
func (r *Router) Sync() { r.ensureEpoch() }

// ensureEpoch invalidates when the graph's route epoch has advanced
// since the state was filled.
func (r *Router) ensureEpoch() {
	if r.g.epoch != r.epoch {
		r.invalidate()
	}
}

// invalidate brings the generations up to the graph's route epoch,
// dropping the state a change of the moved link classes can have
// reached. It runs single-threaded (see Sync).
func (r *Router) invalidate() {
	ce := r.g.classEpoch
	switch {
	case ce[StubStub] != r.seen[StubStub]:
		r.atomGen++
		r.hGen++
	case ce[TransitStub] != r.seen[TransitStub], ce[TransitTransit] != r.seen[TransitTransit]:
		r.hGen++
	}
	r.seen = ce
	r.epoch = r.g.epoch
}

// Path returns the link IDs along the shortest path from -> to, in
// traversal order. It returns nil if to is unreachable, and an empty
// slice if from == to. The returned slice is owned by the router's
// cache and shared between callers: treat it as immutable.
func (r *Router) Path(from, to int) []int32 {
	if from == to {
		return emptyPath
	}
	r.ensureEpoch()
	return r.lookup(from, to).path
}

// Delay returns the one-way propagation delay of the shortest path, or
// -1 if to is unreachable.
func (r *Router) Delay(from, to int) sim.Duration {
	if from == to {
		return 0
	}
	r.ensureEpoch()
	d := r.lookup(from, to).dist
	if d == unreachable {
		return -1
	}
	return sim.Duration(d)
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
