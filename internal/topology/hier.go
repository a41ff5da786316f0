package topology

import (
	"fmt"
	"sync/atomic"
)

// This file holds the machinery behind Router (router.go, which
// describes the design): the transit-stub contract check, the structure
// NewRouter derives from it, the fills of shared state, and the
// per-source query path.

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
	// Router.gdist/gprevL/gprevN, indexed by local node. Distances
	// are symmetric (links are undirected), so these serve both "source
	// to its gateway" and "gateway to destination" lookups.
	trees int
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
	epoch uint64 // Router.epoch the memo belongs to
	tab   []hmemo
	used  int32
	shift uint8 // 32 - log2(len(tab))
}

// hierFills counts fills of shared state, so tests can show what an
// invalidation did not touch.
type hierFills struct{ atoms, graphs, rows int }

// validateHier checks the transit-stub contract the router's
// decomposition relies on, naming the first link or node that breaks
// it. Generate and Builder.Build are its callers, so every Graph keeps
// the contract: no mutator changes a node kind or a link class.
func validateHier(g *Graph) error {
	for i := range g.Nodes {
		if k := g.Nodes[i].Kind; k > Client {
			return fmt.Errorf("topology: node %d has unknown kind %d", i, k)
		}
	}
	for i := range g.Links {
		l := &g.Links[i]
		ka, kb := g.Nodes[l.A].Kind, g.Nodes[l.B].Kind
		var ok bool
		switch l.Class {
		case ClientStub:
			ok = (ka == Client) != (kb == Client) // the other end is the attachment router
		case StubStub:
			ok = ka == Stub && kb == Stub
		case TransitStub:
			ok = ka == Stub && kb == Transit || ka == Transit && kb == Stub
		case TransitTransit:
			ok = ka == Transit && kb == Transit
		default:
			return fmt.Errorf("topology: link %d has unknown class %d", i, l.Class)
		}
		if !ok {
			return fmt.Errorf("topology: %v link %d cannot join %v node %d and %v node %d",
				l.Class, i, ka, l.A, kb, l.B)
		}
	}
	// Every link at a client is now known to be Client-Stub.
	for _, c := range g.Clients {
		if len(g.adj[c]) != 1 {
			return fmt.Errorf("topology: client %d has %d links, want exactly one access link", c, len(g.adj[c]))
		}
	}
	return nil
}

// NewRouter derives the routing structure of g and allocates the shared
// tables. No shortest path is computed here: the router starts one
// Stub-Stub change behind g, so its first Sync or query builds every
// gateway tree and H. Call Sync before goroutines share a new router.
func NewRouter(g *Graph) *Router {
	n := len(g.Nodes)
	r := &Router{
		g:         g,
		atomOf:    make([]int32, n),
		atomLocal: make([]int32, n),
		termIdx:   make([]int32, n),
		srcs:      make([]*hsrc, n),
		epoch:     g.epoch - 1,
		seen:      g.classEpoch,
	}
	r.seen[StubStub]--
	// The contract makes node kinds decide link classes: a link between
	// two Stub nodes is Stub-Stub, one from a Stub to a Transit node is
	// Transit-Stub. The passes below therefore read the dense index
	// arrays, not the links. unseen marks a Stub node no atom has claimed.
	const unseen = -2
	stubs := 0
	for i := range g.Nodes {
		r.atomOf[i] = -1
		r.termIdx[i] = -1
		switch g.Nodes[i].Kind {
		case Transit: // terminals, in ascending node order
			r.termIdx[i] = int32(r.nterm)
			r.nterm++
		case Stub:
			r.atomOf[i] = unseen
			stubs++
		}
	}

	// Atoms: components of Stub nodes over Stub-Stub links, discovered
	// by BFS in ascending seed order so atom and local indices are
	// deterministic.
	order := make([]int32, 0, stubs)
	var starts []int
	gateways := 0
	for i := range r.atomOf {
		if r.atomOf[i] != unseen {
			continue
		}
		id, start := int32(len(starts)), len(order)
		starts = append(starts, start)
		r.atomOf[i] = id
		order = append(order, int32(i))
		for q := start; q < len(order); q++ {
			for _, he := range g.adj[order[q]] {
				switch {
				case r.atomOf[he.to] == unseen:
					r.atomOf[he.to] = id
					r.atomLocal[he.to] = int32(len(order) - start)
					order = append(order, he.to)
				case r.termIdx[he.to] >= 0:
					gateways++
				}
			}
		}
	}
	// Gateways, per atom in node order. The slabs are sized up front, so
	// the subslices taken along the way stay valid.
	gws := make([]hgw, 0, gateways)
	ts := make([]int32, 0, gateways)
	r.atoms = make([]hatom, len(starts))
	cells := 0
	for ai, start := range starts {
		end := len(order)
		if ai+1 < len(starts) {
			end = starts[ai+1]
		}
		atom := &r.atoms[ai]
		atom.nodes = order[start:end:end]
		g0 := len(gws)
		for _, u := range atom.nodes {
			t0 := len(ts)
			for _, he := range g.adj[u] {
				if r.termIdx[he.to] >= 0 {
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
	r.gdist = make([]int64, cells)
	r.gprevL = make([]int32, cells)
	r.gprevN = make([]int32, cells)

	T := r.nterm
	r.hadj = make([][]hedge, T)
	r.rowGen = make([]atomic.Uint32, T)
	r.hdist = make([]int64, T*T)
	r.hpredT = make([]int32, T*T)
	return r
}

// atomDijkstra fills a shortest-path tree within an atom from the given
// local source, over live Stub-Stub links only. q is heap storage; the
// possibly grown storage is returned.
func (r *Router) atomDijkstra(atom *hatom, src int32, dist []int64, prevL, prevN []int32, q pq) pq {
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
		for _, he := range r.g.adj[u] {
			l := &r.g.Links[he.link]
			if l.Class != StubStub || l.Down {
				continue
			}
			v := r.atomLocal[he.to]
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

// fillAtoms fills every atom's gateway trees.
func (r *Router) fillAtoms() {
	for ai := range r.atoms {
		atom := &r.atoms[ai]
		for gi := range atom.gws {
			lo, hi := atom.gwTree(int32(gi))
			r.q = r.atomDijkstra(atom, r.atomLocal[atom.gws[gi].node],
				r.gdist[lo:hi], r.gprevL[lo:hi], r.gprevN[lo:hi], r.q)
		}
	}
	r.fills.atoms += len(r.atoms)
}

// buildGraph rebuilds H over the live links, from current gateway
// trees: the Transit-Transit links, then one virtual edge per
// (entering, leaving) Transit-Stub pair per atom whose gateways are
// connected. It moves hGen, so every row goes stale.
func (r *Router) buildGraph() {
	g := r.g
	for t := range r.hadj {
		r.hadj[t] = r.hadj[t][:0]
	}
	// add records the undirected edge a - b, e describing a -> b; the
	// reverse direction swaps the traversal orientation.
	add := func(a, b int32, e hedge) {
		e.to = b
		r.hadj[a] = append(r.hadj[a], e)
		e.to = a
		e.gwA, e.gwB = e.gwB, e.gwA
		e.tsA, e.tsB = e.tsB, e.tsA
		r.hadj[b] = append(r.hadj[b], e)
	}
	for i := range g.Links {
		l := &g.Links[i]
		if l.Class != TransitTransit || l.Down {
			continue
		}
		add(r.termIdx[l.A], r.termIdx[l.B], hedge{w: int64(l.Delay), link: int32(i), atom: -1})
	}
	for ai := range r.atoms {
		atom := &r.atoms[ai]
		for gi := range atom.gws {
			for gj := gi; gj < len(atom.gws); gj++ {
				intra := int64(0)
				if gi != gj {
					lo, _ := atom.gwTree(int32(gi))
					intra = r.gdist[lo+int(r.atomLocal[atom.gws[gj].node])]
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
						if la.Down || lb.Down {
							continue
						}
						ta := r.termIdx[transitEnd(g, la)]
						tb := r.termIdx[transitEnd(g, lb)]
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
	r.hGen++
	r.fills.graphs++
}

func transitEnd(g *Graph, l *Link) int {
	if g.Nodes[l.A].Kind == Transit {
		return l.A
	}
	return l.B
}

// row returns the distances from terminal s to every terminal, filling
// the row (one Dijkstra over H) on first use per generation.
func (r *Router) row(s int32) []int64 {
	if r.rowGen[s].Load() != r.hGen {
		r.fillRow(s)
	}
	T := r.nterm
	return r.hdist[int(s)*T : (int(s)+1)*T]
}

func (r *Router) fillRow(s int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rowGen[s].Load() == r.hGen {
		return
	}
	T := r.nterm
	lo, hi := int(s)*T, (int(s)+1)*T
	dist, predT := r.hdist[lo:hi], r.hpredT[lo:hi]
	for i := range dist {
		dist[i] = unreachable
		predT[i] = -1
	}
	dist[s] = 0
	q := append(r.q[:0], pqItem{node: s, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		if dist[it.node] != it.dist {
			continue
		}
		for _, e := range r.hadj[it.node] {
			nd := it.dist + e.w
			if dist[e.to] == unreachable || nd < dist[e.to] {
				dist[e.to] = nd
				predT[e.to] = it.node
				q.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	r.q = q
	r.fills.rows++
	r.rowGen[s].Store(r.hGen)
}

// endpoint describes a query end after peeling a client's access link.
type endpoint struct {
	router int32 // attachment router (the node itself for non-clients)
	acc    int32 // access link id, -1 for non-clients
	accD   int64
	ok     bool
}

func (r *Router) resolve(node int) endpoint {
	if r.g.Nodes[node].Kind != Client {
		return endpoint{router: int32(node), acc: -1, ok: true}
	}
	lid := r.g.AccessLink(node)
	l := &r.g.Links[lid]
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
func (r *Router) entries(u int32, buf []entryOpt) []entryOpt {
	if t := r.termIdx[u]; t >= 0 {
		return append(buf, entryOpt{term: t, gw: -1, ts: -1})
	}
	atom := &r.atoms[r.atomOf[u]]
	for gi := range atom.gws {
		lo, _ := atom.gwTree(int32(gi))
		d := r.gdist[lo+int(r.atomLocal[u])]
		if d == unreachable {
			continue
		}
		for _, ts := range atom.gws[gi].ts {
			l := &r.g.Links[ts]
			if l.Down {
				continue
			}
			buf = append(buf, entryOpt{
				term: r.termIdx[transitEnd(r.g, l)],
				d:    d + int64(l.Delay),
				gw:   int32(gi),
				ts:   ts,
			})
		}
	}
	return buf
}

// route answers a router-to-router query: the distance, and the choice
// that realizes it. sameAtom is the pure same-atom distance from u to v
// (unreachable when they share no atom or no intra-atom path joins
// them); intra reports that it won, otherwise e1/e2 hold the chosen
// entry and exit options.
func (r *Router) route(u, v int32, sameAtom int64) (dist int64, intra bool, e1, e2 entryOpt) {
	dist = sameAtom
	intra = dist != unreachable
	var b1, b2 [8]entryOpt
	es1 := r.entries(u, b1[:0])
	es2 := r.entries(v, b2[:0])
	if len(es2) == 0 {
		return dist, intra, e1, e2
	}
	for _, c1 := range es1 {
		row := r.row(c1.term)
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
func (r *Router) appendGateway(p []int32, u, gw int32, reversed bool) []int32 {
	lo, hi := r.atoms[r.atomOf[u]].gwTree(gw)
	prevL, prevN := r.gprevL[lo:hi], r.gprevN[lo:hi]
	if reversed {
		return appendIntraReversed(p, prevL, prevN, r.atomLocal[u])
	}
	return appendIntra(p, prevL, prevN, r.atomLocal[u])
}

// appendHPath appends the expanded link path between terminals t1 and
// t2, using the row rooted at t1 (current: route read it).
func (r *Router) appendHPath(p []int32, t1, t2 int32) []int32 {
	if t1 == t2 {
		return p
	}
	// Collect the edge chain t2 -> t1, then expand it backwards.
	var ebuf [32]hedge
	chain := ebuf[:0]
	T := r.nterm
	dist, predT := r.hdist[int(t1)*T:int(t1+1)*T], r.hpredT[int(t1)*T:int(t1+1)*T]
	for x := t2; x != t1; x = predT[x] {
		chain = append(chain, r.predEdge(dist, predT[x], x))
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
			p = r.appendGateway(p, r.atoms[e.atom].gws[e.gwB].node, e.gwA, true)
		}
		p = append(p, e.tsB)
	}
	return p
}

// predEdge returns the edge over which fillRow last improved x, for
// u = predT[x] in a row with distances dist: the row keeps the
// predecessor terminal only. fillRow moves x only on a strict
// improvement, and u made the last one, at its final distance dist[u].
// That edge is the first in hadj[u] reaching x at dist[x]: an earlier
// edge at that weight would have set dist[x] itself, leaving none to
// improve on, and a later one at that weight improves nothing.
func (r *Router) predEdge(dist []int64, u, x int32) hedge {
	for _, e := range r.hadj[u] {
		if e.to == x && dist[u]+e.w == dist[x] {
			return e
		}
	}
	panic("topology: no shortest-path edge into a terminal of a filled row")
}

// solve answers from -> to (from != to) against the current link
// state: unreachable and a nil path when there is no route, otherwise
// the distance and a freshly allocated path the caller may share but
// never modify. When both routers lie in one atom, the shortest-path
// tree within it, rooted at the source router, gives route the pure
// same-atom distance and, if that wins, the path: the one piece no
// gateway tree covers, built here because solve runs once per pair
// and route epoch.
func (r *Router) solve(from, to int) (int64, []int32) {
	a, b := r.resolve(from), r.resolve(to)
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
		sameAtom := unreachable
		var prevL, prevN []int32
		if au := r.atomOf[a.router]; au >= 0 && au == r.atomOf[b.router] {
			atom := &r.atoms[au]
			m := len(atom.nodes)
			dist := make([]int64, m)
			prevL, prevN = make([]int32, m), make([]int32, m)
			r.atomDijkstra(atom, r.atomLocal[a.router], dist, prevL, prevN, nil)
			sameAtom = dist[r.atomLocal[b.router]]
		}
		rd, intra, e1, e2 := r.route(a.router, b.router, sameAtom)
		switch {
		case rd == unreachable:
			return unreachable, nil
		case intra:
			p = appendIntraReversed(p, prevL, prevN, r.atomLocal[b.router])
		default:
			if e1.gw >= 0 {
				p = r.appendGateway(p, a.router, e1.gw, false)
				p = append(p, e1.ts)
			}
			p = r.appendHPath(p, e1.term, e2.term)
			if e2.gw >= 0 {
				p = append(p, e2.ts)
				p = r.appendGateway(p, b.router, e2.gw, true)
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
func (r *Router) lookup(from, to int) *hmemo {
	s := r.srcs[from]
	if s == nil {
		s = &hsrc{epoch: r.epoch}
		r.srcs[from] = s
	}
	if s.epoch != r.epoch {
		s.epoch = r.epoch
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
	dist, path := r.solve(from, to)
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
