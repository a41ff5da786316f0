package topology

import (
	"sync"
	"sync/atomic"
)

// This file holds the hierarchical router backend, which serves every
// topology that keeps the transit-stub contract (validateHier): all
// generated ones, at every size. The flat backend pays one Dijkstra
// over the whole graph per source — 0.85 ms and 102 KB at 5,000 nodes,
// ~100 ms and ~2.4 MB at 100,000 — and drops all of them on every route
// change. The hierarchical backend exploits the structure the generator
// (and Table 1) guarantees:
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
// byte-identity contract of the sharded runner extends to the
// hierarchical backend unchanged — and TestHierMatchesFlat and
// FuzzHierMatchesFlat hold every path equal, link by link, to the flat
// backend's.
//
// The backend is split the way link-state routing splits a network
// into areas. Structure — terminal and atom indexing, gateway lists —
// depends only on node kinds and link classes, which no mutator
// changes: newHier derives it once, in O(nodes + links), and allocates
// every shared table. State depends on which links are up and how long
// they are, and is filled on first use, into those tables:
//
//   - an atom's gateway trees, when a query first enters or leaves the
//     atom (all atoms with two or more gateways when H is built);
//   - H, when the first query crosses the backbone;
//   - row t of the terminal-to-terminal tables (one Dijkstra over H),
//     when a source first enters the backbone at terminal t;
//   - a source's memo of answered (destination, distance, path)
//     queries, which is what a warm Path or Delay reads.
//
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
// runs single-threaded (Router.Sync at a window barrier, or the serial
// engine); fills take mu and publish through an atomic generation
// stamp, which is all the fast path reads. A source's memo and
// same-atom tree are touched only by the shard that owns the source
// node, the ownership discipline the flat backend relies on too.
//
// Table storage is T² × 16 B for T terminals (2% of the routers:
// 0.2 MB at 5,000 nodes, 2.8 MB at 20,000, 52 MB at 100,000), reserved
// at construction and touched row by row as rows fill.

// hgw is one gateway of an atom: a Stub node carrying at least one
// Transit-Stub link, up or down.
type hgw struct {
	node int32
	ts   []int32 // Transit-Stub link ids out of node, in adjacency order
}

// hatom is one stub atom.
type hatom struct {
	nodes []int32 // member node ids, breadth-first from the lowest
	gws   []hgw   // in nodes order
	// Gateway-rooted shortest-path trees within the atom: the tree of
	// gateway gi occupies cells [trees+gi*len(nodes), +len(nodes)) of
	// hierRouter.gdist/gprevL/gprevN, indexed by local node. Distances
	// are symmetric (links are undirected), so these serve both "source
	// to its gateway" and "gateway to destination" lookups.
	trees int
	gen   atomic.Uint32 // equals hierRouter.atomGen once the trees are current
}

// hedge is a directed edge of the terminal graph: a Transit-Transit
// link, or a virtual atom traversal tsA -> (gwA .. gwB intra) -> tsB.
type hedge struct {
	to       int32 // destination terminal index
	w        int64
	link     int32 // real link id, or -1 for a virtual edge
	atom     int32
	gwA, gwB int32 // gateway indices within atom (may be equal)
	tsA, tsB int32 // entering / leaving Transit-Stub link ids
}

// hmemo is one answered query of a source.
type hmemo struct {
	key  int32 // destination node id + 1; 0 marks a free slot
	dist int64 // unreachable when there is no path
	path []int32
}

// hsrc is per-source query state, touched only by the shard that owns
// the source node. The memo is an open-addressed table, linear probing
// at load <= 1/2: a hit costs the slot load and one compare, and a miss
// never allocates map buckets.
type hsrc struct {
	stamp uint64 // hierRouter.stamp the memo belongs to; 0 before first use
	tab   []hmemo
	used  int32
	shift uint8 // 32 - log2(len(tab))
	// atree is the shortest-path tree within the source router's own
	// atom, rooted at that router: the one piece no gateway tree covers.
	// nil until a destination in the same atom is asked for.
	atree *hatree
}

type hatree struct {
	gen          uint32 // hierRouter.atomGen it was built at
	dist         []int64
	prevL, prevN []int32
}

type hierRouter struct {
	g *Graph

	// Structure: fixed at construction.
	atomOf    []int32 // node -> atom index, -1 for Transit and Client
	atomLocal []int32 // node -> local index within its atom
	atoms     []hatom
	termIdx   []int32 // node -> terminal index, -1 for non-Transit
	nterm     int     // terminals: the Transit nodes

	// Generations: written by invalidate only.
	seen    [numLinkClasses]uint64 // graph class epochs the state reflects
	stamp   uint64                 // graph route epoch + 1: owner of the memos
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
	hpredT         []int32         // predecessor terminal on the shortest path
	hpredE         []int32         // index of the predecessor edge in hadj[predT]
	fills          hierFills

	srcs []*hsrc // per-source state by node id, nil until the node first asks
}

// hierFills counts fills of shared state, so tests can show what an
// invalidation did not touch.
type hierFills struct{ atoms, graphs, rows int }

// validateHier checks the transit-stub contract the decomposition
// relies on. A false return means the topology was handcrafted outside
// the contract and the flat backend must serve it.
func validateHier(g *Graph) bool {
	for i := range g.Links {
		l := &g.Links[i]
		ka, kb := g.Nodes[l.A].Kind, g.Nodes[l.B].Kind
		switch l.Class {
		case ClientStub:
			if (ka == Client) == (kb == Client) {
				return false // exactly one endpoint must be the client
			}
		case StubStub:
			if ka != Stub || kb != Stub {
				return false
			}
		case TransitStub:
			if !(ka == Stub && kb == Transit || ka == Transit && kb == Stub) {
				return false
			}
		case TransitTransit:
			if ka != Transit || kb != Transit {
				return false
			}
		default:
			return false
		}
	}
	for i := range g.Nodes {
		if g.Nodes[i].Kind != Client {
			continue
		}
		if len(g.adj[i]) != 1 {
			return false // clients must be degree-one leaves
		}
		l := &g.Links[g.adj[i][0].link]
		if l.Class != ClientStub {
			return false
		}
	}
	return true
}

// newHier derives the structure of the hierarchical backend and
// allocates its tables, or returns nil when the topology violates the
// transit-stub contract. No shortest path is computed here.
func newHier(g *Graph) *hierRouter {
	if !validateHier(g) {
		return nil
	}
	n := len(g.Nodes)
	h := &hierRouter{
		g:         g,
		atomOf:    make([]int32, n),
		atomLocal: make([]int32, n),
		termIdx:   make([]int32, n),
		srcs:      make([]*hsrc, n),
		seen:      g.classEpoch,
		stamp:     g.epoch + 1,
		atomGen:   1,
		hGen:      1,
	}
	// The contract makes node kinds decide link classes: a link between
	// two Stub nodes is Stub-Stub, one from a Stub to a Transit node is
	// Transit-Stub. The passes below therefore read the dense index
	// arrays, not the links. unseen marks a Stub node no atom has claimed.
	const unseen = -2
	stubs := 0
	for i := range g.Nodes {
		h.atomOf[i] = -1
		h.termIdx[i] = -1
		switch g.Nodes[i].Kind {
		case Transit: // terminals, in ascending node order
			h.termIdx[i] = int32(h.nterm)
			h.nterm++
		case Stub:
			h.atomOf[i] = unseen
			stubs++
		}
	}

	// Atoms: components of Stub nodes over Stub-Stub links, discovered
	// by BFS in ascending seed order so atom and local indices are
	// deterministic.
	order := make([]int32, 0, stubs)
	var starts []int
	gateways := 0
	for i := range h.atomOf {
		if h.atomOf[i] != unseen {
			continue
		}
		id, start := int32(len(starts)), len(order)
		starts = append(starts, start)
		h.atomOf[i] = id
		order = append(order, int32(i))
		for q := start; q < len(order); q++ {
			for _, he := range g.adj[order[q]] {
				switch {
				case h.atomOf[he.to] == unseen:
					h.atomOf[he.to] = id
					h.atomLocal[he.to] = int32(len(order) - start)
					order = append(order, he.to)
				case h.termIdx[he.to] >= 0:
					gateways++
				}
			}
		}
	}
	// Gateways, per atom in node order. The slabs are sized up front, so
	// the subslices taken along the way stay valid.
	gws := make([]hgw, 0, gateways)
	ts := make([]int32, 0, gateways)
	h.atoms = make([]hatom, len(starts))
	cells := 0
	for ai, start := range starts {
		end := len(order)
		if ai+1 < len(starts) {
			end = starts[ai+1]
		}
		atom := &h.atoms[ai]
		atom.nodes = order[start:end:end]
		g0 := len(gws)
		for _, u := range atom.nodes {
			t0 := len(ts)
			for _, he := range g.adj[u] {
				if h.termIdx[he.to] >= 0 {
					ts = append(ts, he.link)
				}
			}
			if len(ts) > t0 {
				gws = append(gws, hgw{node: u, ts: ts[t0:len(ts):len(ts)]})
			}
		}
		atom.gws = gws[g0:len(gws):len(gws)]
		atom.trees = cells
		cells += len(atom.gws) * len(atom.nodes)
	}
	h.gdist = make([]int64, cells)
	h.gprevL = make([]int32, cells)
	h.gprevN = make([]int32, cells)

	// Terminal graph adjacency, sized for every link up and every
	// gateway pair connected; buildGraph appends within these capacities.
	T := h.nterm
	deg := make([]int, T)
	total := 0
	h.hEdges(false, func(a, b int32, _ hedge) {
		deg[a]++
		deg[b]++
		total += 2
	})
	slab := make([]hedge, total)
	h.hadj = make([][]hedge, T)
	for t, d := range deg {
		h.hadj[t] = slab[:0:d]
		slab = slab[d:]
	}
	h.rowGen = make([]atomic.Uint32, T)
	h.hdist = make([]int64, T*T)
	h.hpredT = make([]int32, T*T)
	h.hpredE = make([]int32, T*T)
	return h
}

// invalidate brings the generations up to the graph's route epoch,
// dropping the state a change of the moved link classes can have
// reached. It runs single-threaded (see Router.Sync).
func (h *hierRouter) invalidate() {
	ce := h.g.classEpoch
	switch {
	case ce[StubStub] != h.seen[StubStub]:
		h.atomGen++
		h.hGen++
	case ce[TransitStub] != h.seen[TransitStub], ce[TransitTransit] != h.seen[TransitTransit]:
		h.hGen++
	}
	h.seen = ce
	h.stamp = h.g.epoch + 1
}

// atomDijkstra fills a shortest-path tree within an atom from the given
// local source, over live Stub-Stub links only. q is heap storage; the
// possibly grown storage is returned.
func (h *hierRouter) atomDijkstra(atom *hatom, src int32, dist []int64, prevL, prevN []int32, q pq) pq {
	for i := range dist {
		dist[i] = unreachable
		prevL[i] = -1
		prevN[i] = -1
	}
	dist[src] = 0
	q = append(q[:0], pqItem{node: src, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		u := atom.nodes[it.node]
		if dist[it.node] != it.dist {
			continue
		}
		for _, he := range h.g.adj[u] {
			l := &h.g.Links[he.link]
			if l.Class != StubStub || l.Down {
				continue
			}
			v := h.atomLocal[he.to]
			nd := it.dist + int64(l.Delay)
			if dist[v] == unreachable || nd < dist[v] {
				dist[v] = nd
				prevL[v] = he.link
				prevN[v] = it.node
				q.push(pqItem{node: v, dist: nd})
			}
		}
	}
	return q
}

// gwTree returns the cell range of gateway gi's tree in atom.
func (atom *hatom) gwTree(gi int32) (lo, hi int) {
	lo = atom.trees + int(gi)*len(atom.nodes)
	return lo, lo + len(atom.nodes)
}

// ensureAtom makes atom's gateway trees current.
func (h *hierRouter) ensureAtom(atom *hatom) {
	if atom.gen.Load() != h.atomGen {
		h.mu.Lock()
		h.fillAtom(atom)
		h.mu.Unlock()
	}
}

// fillAtom is ensureAtom with mu held.
func (h *hierRouter) fillAtom(atom *hatom) {
	if atom.gen.Load() == h.atomGen {
		return
	}
	for gi := range atom.gws {
		lo, hi := atom.gwTree(int32(gi))
		h.q = h.atomDijkstra(atom, h.atomLocal[atom.gws[gi].node],
			h.gdist[lo:hi], h.gprevL[lo:hi], h.gprevN[lo:hi], h.q)
	}
	h.fills.atoms++
	atom.gen.Store(h.atomGen)
}

// hEdges calls add once per undirected edge of the terminal graph H:
// the Transit-Transit links, then one virtual edge per (entering,
// leaving) Transit-Stub pair per atom; e describes the a -> b
// direction. With live false it reports the edges H has when every link
// is up and every gateway pair connected — the bound that sizes the
// adjacency storage — and reads no link state; with live true it skips
// down links and disconnected gateways, and must hold mu.
func (h *hierRouter) hEdges(live bool, add func(a, b int32, e hedge)) {
	g := h.g
	for i := range g.Links {
		l := &g.Links[i]
		if l.Class != TransitTransit || live && l.Down {
			continue
		}
		add(h.termIdx[l.A], h.termIdx[l.B], hedge{w: int64(l.Delay), link: int32(i), atom: -1})
	}
	for ai := range h.atoms {
		atom := &h.atoms[ai]
		if live && len(atom.gws) > 1 {
			h.fillAtom(atom)
		}
		for gi := range atom.gws {
			for gj := gi; gj < len(atom.gws); gj++ {
				intra := int64(0)
				if live && gi != gj {
					lo, _ := atom.gwTree(int32(gi))
					intra = h.gdist[lo+int(h.atomLocal[atom.gws[gj].node])]
					if intra == unreachable {
						continue
					}
				}
				for ia, tsA := range atom.gws[gi].ts {
					tsBs := atom.gws[gj].ts
					if gi == gj {
						// Same gateway on both ends: take unordered
						// pairs once (add covers the reverse).
						tsBs = tsBs[ia+1:]
					}
					for _, tsB := range tsBs {
						la, lb := &g.Links[tsA], &g.Links[tsB]
						if live && (la.Down || lb.Down) {
							continue
						}
						ta := h.termIdx[transitEnd(g, la)]
						tb := h.termIdx[transitEnd(g, lb)]
						if ta == tb {
							continue
						}
						add(ta, tb, hedge{
							w:    int64(la.Delay) + intra + int64(lb.Delay),
							link: -1, atom: int32(ai),
							gwA: int32(gi), gwB: int32(gj),
							tsA: tsA, tsB: tsB,
						})
					}
				}
			}
		}
	}
}

func transitEnd(g *Graph, l *Link) int {
	if g.Nodes[l.A].Kind == Transit {
		return l.A
	}
	return l.B
}

// buildGraph makes hadj current, with mu held.
func (h *hierRouter) buildGraph() {
	if h.hBuilt == h.hGen {
		return
	}
	for t := range h.hadj {
		h.hadj[t] = h.hadj[t][:0]
	}
	h.hEdges(true, func(a, b int32, e hedge) {
		e.to = b
		h.hadj[a] = append(h.hadj[a], e)
		// The reverse direction swaps the traversal orientation.
		e.to = a
		e.gwA, e.gwB = e.gwB, e.gwA
		e.tsA, e.tsB = e.tsB, e.tsA
		h.hadj[b] = append(h.hadj[b], e)
	})
	h.fills.graphs++
	h.hBuilt = h.hGen
}

// row returns the distances from terminal s to every terminal, filling
// the row (one Dijkstra over H) on first use per generation.
func (h *hierRouter) row(s int32) []int64 {
	if h.rowGen[s].Load() != h.hGen {
		h.fillRow(s)
	}
	T := h.nterm
	return h.hdist[int(s)*T : (int(s)+1)*T]
}

func (h *hierRouter) fillRow(s int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rowGen[s].Load() == h.hGen {
		return
	}
	h.buildGraph()
	T := h.nterm
	lo, hi := int(s)*T, (int(s)+1)*T
	dist, predT, predE := h.hdist[lo:hi], h.hpredT[lo:hi], h.hpredE[lo:hi]
	for i := range dist {
		dist[i] = unreachable
		predT[i] = -1
		predE[i] = -1
	}
	dist[s] = 0
	q := append(h.q[:0], pqItem{node: s, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		if dist[it.node] != it.dist {
			continue
		}
		for ei, e := range h.hadj[it.node] {
			nd := it.dist + e.w
			if dist[e.to] == unreachable || nd < dist[e.to] {
				dist[e.to] = nd
				predT[e.to] = it.node
				predE[e.to] = int32(ei)
				q.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	h.q = q
	h.fills.rows++
	h.rowGen[s].Store(h.hGen)
}

// endpoint describes a query end after peeling a client's access link.
type endpoint struct {
	router int32 // attachment router (the node itself for non-clients)
	acc    int32 // access link id, -1 for non-clients
	accD   int64
	ok     bool
}

func (h *hierRouter) resolve(node int) endpoint {
	if h.g.Nodes[node].Kind != Client {
		return endpoint{router: int32(node), acc: -1, ok: true}
	}
	lid := h.g.AccessLink(node)
	l := &h.g.Links[lid]
	if l.Down {
		return endpoint{}
	}
	other := l.A
	if other == node {
		other = l.B
	}
	return endpoint{router: int32(other), acc: int32(lid), accD: int64(l.Delay), ok: true}
}

// entryOpt is one way for a router to reach (or be reached from) the
// backbone: through gateway gw and Transit-Stub link ts, at intra-atom
// cost d, landing on terminal term. For Transit routers the entry is
// the router itself at cost zero.
type entryOpt struct {
	term int32
	d    int64
	gw   int32 // gateway index within the router's atom, -1 for Transit
	ts   int32 // Transit-Stub link id, -1 for Transit
}

// entries appends the backbone entry options of router u to buf.
func (h *hierRouter) entries(u int32, buf []entryOpt) []entryOpt {
	if t := h.termIdx[u]; t >= 0 {
		return append(buf, entryOpt{term: t, gw: -1, ts: -1})
	}
	atom := &h.atoms[h.atomOf[u]]
	h.ensureAtom(atom)
	for gi := range atom.gws {
		lo, _ := atom.gwTree(int32(gi))
		d := h.gdist[lo+int(h.atomLocal[u])]
		if d == unreachable {
			continue
		}
		for _, ts := range atom.gws[gi].ts {
			l := &h.g.Links[ts]
			if l.Down {
				continue
			}
			buf = append(buf, entryOpt{
				term: h.termIdx[transitEnd(h.g, l)],
				d:    d + int64(l.Delay),
				gw:   int32(gi),
				ts:   ts,
			})
		}
	}
	return buf
}

// atomTree returns the same-atom shortest-path tree rooted at Stub
// router u, kept in the state of the source s that asks through u.
func (h *hierRouter) atomTree(s *hsrc, u int32) *hatree {
	atom := &h.atoms[h.atomOf[u]]
	t := s.atree
	if t == nil {
		m := len(atom.nodes)
		t = &hatree{dist: make([]int64, m), prevL: make([]int32, m), prevN: make([]int32, m)}
		s.atree = t
	}
	if t.gen != h.atomGen {
		h.atomDijkstra(atom, h.atomLocal[u], t.dist, t.prevL, t.prevN, nil)
		t.gen = h.atomGen
	}
	return t
}

// route answers a router-to-router query on behalf of source s: the
// distance, and the choice that realizes it. intra reports that the
// pure same-atom path won; otherwise e1/e2 hold the chosen entry and
// exit options.
func (h *hierRouter) route(s *hsrc, u, v int32) (dist int64, intra bool, e1, e2 entryOpt) {
	dist = unreachable
	if au, av := h.atomOf[u], h.atomOf[v]; au >= 0 && au == av {
		if d := h.atomTree(s, u).dist[h.atomLocal[v]]; d != unreachable {
			dist, intra = d, true
		}
	}
	var b1, b2 [8]entryOpt
	es1 := h.entries(u, b1[:0])
	es2 := h.entries(v, b2[:0])
	if len(es2) == 0 {
		return dist, intra, e1, e2
	}
	for _, c1 := range es1 {
		row := h.row(c1.term)
		for _, c2 := range es2 {
			hd := row[c2.term]
			if hd == unreachable {
				continue
			}
			if d := c1.d + hd + c2.d; dist == unreachable || d < dist {
				dist, intra, e1, e2 = d, false, c1, c2
			}
		}
	}
	return dist, intra, e1, e2
}

// appendIntra appends the intra-atom path from local index lu to the
// root of the given tree (links come out in lu -> root order).
func appendIntra(p []int32, prevL, prevN []int32, lu int32) []int32 {
	for n := lu; prevL[n] != -1; n = prevN[n] {
		p = append(p, prevL[n])
	}
	return p
}

// appendIntraReversed appends the same walk root -> lu.
func appendIntraReversed(p []int32, prevL, prevN []int32, lu int32) []int32 {
	mark := len(p)
	p = appendIntra(p, prevL, prevN, lu)
	reverse(p[mark:])
	return p
}

func reverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// appendGateway appends the walk between router u and gateway gw of
// u's atom: u -> gateway, or gateway -> u when reversed.
func (h *hierRouter) appendGateway(p []int32, u, gw int32, reversed bool) []int32 {
	lo, hi := h.atoms[h.atomOf[u]].gwTree(gw)
	prevL, prevN := h.gprevL[lo:hi], h.gprevN[lo:hi]
	if reversed {
		return appendIntraReversed(p, prevL, prevN, h.atomLocal[u])
	}
	return appendIntra(p, prevL, prevN, h.atomLocal[u])
}

// appendHPath appends the expanded link path between terminals t1 and
// t2, using the row rooted at t1 (current: route read it).
func (h *hierRouter) appendHPath(p []int32, t1, t2 int32) []int32 {
	if t1 == t2 {
		return p
	}
	// Collect the edge chain t2 -> t1, then expand it backwards.
	var ebuf [32]hedge
	chain := ebuf[:0]
	T := h.nterm
	predT, predE := h.hpredT[int(t1)*T:], h.hpredE[int(t1)*T:]
	for x := t2; x != t1; x = predT[x] {
		chain = append(chain, h.hadj[predT[x]][predE[x]])
	}
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i]
		if e.link >= 0 {
			p = append(p, e.link)
			continue
		}
		p = append(p, e.tsA)
		if e.gwA != e.gwB {
			// Intra path gwA -> gwB, from the tree rooted at gwA.
			p = h.appendGateway(p, h.atoms[e.atom].gws[e.gwB].node, e.gwA, true)
		}
		p = append(p, e.tsB)
	}
	return p
}

// solve answers from -> to (from != to) against the current link
// state, with the flat backend's contract: unreachable and a nil path
// when there is no route, otherwise the distance and a freshly
// allocated path the caller may share but never modify.
func (h *hierRouter) solve(s *hsrc, from, to int) (int64, []int32) {
	a, b := h.resolve(from), h.resolve(to)
	if !a.ok || !b.ok {
		return unreachable, nil
	}
	var buf [48]int32
	p := buf[:0]
	d := a.accD + b.accD
	if a.acc >= 0 {
		p = append(p, a.acc)
	}
	if a.router != b.router {
		rd, intra, e1, e2 := h.route(s, a.router, b.router)
		switch {
		case rd == unreachable:
			return unreachable, nil
		case intra:
			t := h.atomTree(s, a.router)
			p = appendIntraReversed(p, t.prevL, t.prevN, h.atomLocal[b.router])
		default:
			if e1.gw >= 0 {
				p = h.appendGateway(p, a.router, e1.gw, false)
				p = append(p, e1.ts)
			}
			p = h.appendHPath(p, e1.term, e2.term)
			if e2.gw >= 0 {
				p = append(p, e2.ts)
				p = h.appendGateway(p, b.router, e2.gw, true)
			}
		}
		d += rd
	}
	if b.acc >= 0 {
		p = append(p, b.acc)
	}
	return d, append([]int32(nil), p...)
}

// memoHash spreads destination keys (client ids are consecutive) over
// the table: Fibonacci hashing, the top bits of key × 2³²/φ.
func memoHash(key int32, shift uint8) uint32 {
	return uint32(key) * 0x9E3779B9 >> shift
}

// lookup answers from -> to (from != to) from the source's memo,
// solving and recording the pair on first use per route epoch. The
// returned entry is valid until the next lookup on the same source.
func (h *hierRouter) lookup(from, to int) *hmemo {
	s := h.srcs[from]
	if s == nil {
		s = &hsrc{}
		h.srcs[from] = s
	}
	if s.stamp != h.stamp {
		s.stamp = h.stamp
		s.used = 0
		clear(s.tab)
	}
	key := int32(to) + 1
	if len(s.tab) != 0 {
		mask := uint32(len(s.tab) - 1)
		for i := memoHash(key, s.shift); ; i = (i + 1) & mask {
			e := &s.tab[i]
			if e.key == key {
				return e
			}
			if e.key == 0 {
				break
			}
		}
	}
	dist, path := h.solve(s, from, to)
	return s.insert(hmemo{key: key, dist: dist, path: path})
}

// insert records m, which must not be present, growing the table to
// keep the load at or under one half.
func (s *hsrc) insert(m hmemo) *hmemo {
	if 2*int(s.used) >= len(s.tab) {
		old := s.tab
		n := max(16, 2*len(old))
		s.tab = make([]hmemo, n)
		s.shift = 32
		for ; n > 1; n >>= 1 {
			s.shift--
		}
		s.used = 0
		for _, e := range old {
			if e.key != 0 {
				s.insert(e)
			}
		}
	}
	mask := uint32(len(s.tab) - 1)
	i := memoHash(m.key, s.shift)
	for s.tab[i].key != 0 {
		i = (i + 1) & mask
	}
	s.tab[i] = m
	s.used++
	return &s.tab[i]
}
