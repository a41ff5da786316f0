package overlay

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"bullet/internal/tfrc"
	"bullet/internal/topology"
)

// Estimator predicts the throughput of a prospective overlay link per
// §4.1: the minimum of the TCP steady-state formula rate (from path
// RTT and end-to-end loss) and the fair share of every physical link
// along the fixed routing path, given the flows already routed.
type Estimator struct {
	rt         *topology.Router
	packetSize float64
	flows      map[int32]int // physical link -> flows already placed
}

// NewEstimator creates an estimator for paths routed by rt with the
// given nominal packet size in bytes.
func NewEstimator(rt *topology.Router, packetSize float64) *Estimator {
	return &Estimator{rt: rt, packetSize: packetSize, flows: make(map[int32]int)}
}

// Throughput estimates the bytes/second an overlay link v->w would
// achieve if placed now.
func (e *Estimator) Throughput(v, w int) float64 {
	path := e.rt.Path(v, w)
	if path == nil || len(path) == 0 {
		return 0
	}
	// TCP formula component: RTT over both directions, combined loss.
	rtt := (e.rt.Delay(v, w) + e.rt.Delay(w, v)).ToSeconds()
	loss := e.rt.PathLoss(v, w)
	rate := math.Inf(1)
	if loss > 0 {
		rate = tfrc.Rate(e.packetSize, rtt, loss, 4*rtt)
	}
	// Fair share component: each physical link shared by existing
	// flows plus this one.
	for _, lid := range path {
		share := e.rt.Graph().Links[lid].Bytes / float64(e.flows[lid]+1)
		if share < rate {
			rate = share
		}
	}
	return rate
}

// Place commits a flow v->w, consuming fair share on its path.
func (e *Estimator) Place(v, w int) {
	for _, lid := range e.rt.Path(v, w) {
		e.flows[lid]++
	}
}

type offer struct {
	rate float64
	from int // in-tree node
	to   int // remaining node
}

type offerHeap []offer

func (h offerHeap) Len() int           { return len(h) }
func (h offerHeap) Less(i, j int) bool { return h[i].rate > h[j].rate } // max-heap
func (h offerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *offerHeap) Push(x any)        { *h = append(*h, x.(offer)) }
func (h *offerHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Bottleneck builds the offline greedy Overlay Maximum Bottleneck Tree
// of §4.1: Prim-style growth that repeatedly attaches the remaining
// node reachable through the highest-throughput overlay link, using
// global topology knowledge (link capacities, loss rates, delays) and
// accounting for fair-share contention with flows already placed. As in
// the paper, already-attached nodes are not re-examined when later
// flows share their physical links. maxDegree <= 0 means unconstrained
// (the paper's trees are "long and skinny").
func Bottleneck(rt *topology.Router, participants []int, root int, packetSize float64, maxDegree int) (*Tree, error) {
	est := NewEstimator(rt, packetSize)
	t := NewTree(root)
	remaining := make(map[int]bool, len(participants))
	for _, p := range participants {
		if p != root {
			remaining[p] = true
		}
	}
	h := &offerHeap{}
	pushOffers := func(from int) {
		// Iterate candidates in sorted order: equal-throughput offers
		// tie-break by insertion order, and map order must never make
		// tree construction process-dependent.
		ids := make([]int, 0, len(remaining))
		for to := range remaining {
			ids = append(ids, to)
		}
		sort.Ints(ids)
		for _, to := range ids {
			if r := est.Throughput(from, to); r > 0 {
				heap.Push(h, offer{rate: r, from: from, to: to})
			}
		}
	}
	pushOffers(root)
	for len(remaining) > 0 {
		if h.Len() == 0 {
			return nil, fmt.Errorf("overlay: %d participants unreachable from %d", len(remaining), root)
		}
		o := heap.Pop(h).(offer)
		if !remaining[o.to] {
			continue
		}
		if maxDegree > 0 && t.Degree(o.from) >= maxDegree {
			continue
		}
		// Lazy revalidation: recompute with current contention; accept
		// only if still at least as good as the next best offer.
		cur := est.Throughput(o.from, o.to)
		if h.Len() > 0 && cur < (*h)[0].rate {
			if cur > 0 {
				heap.Push(h, offer{rate: cur, from: o.from, to: o.to})
			}
			continue
		}
		if cur <= 0 {
			continue
		}
		if err := t.Attach(o.to, o.from); err != nil {
			return nil, err
		}
		est.Place(o.from, o.to)
		delete(remaining, o.to)
		pushOffers(o.to)
	}
	sort.Ints(t.Participants)
	return t, nil
}

// Overcast builds an Overcast-like online bandwidth-optimizing tree
// ([21], as approximated in §4.2): each node joins at the root and
// migrates down below a sibling-child whenever the bandwidth estimate
// through that child is no worse than its current estimate through the
// parent, preferring positions deeper in the tree. Unlike Bottleneck it
// uses only pairwise probes (no global contention accounting), which is
// why the paper finds such trees reach at most ~75% of the offline
// algorithm's bandwidth.
func Overcast(rt *topology.Router, participants []int, root int, packetSize float64, maxDegree int) (*Tree, error) {
	if maxDegree < 1 {
		maxDegree = 8
	}
	est := NewEstimator(rt, packetSize)
	t := NewTree(root)
	for _, n := range participants {
		if n == root {
			continue
		}
		cur := root
		curBW := est.Throughput(root, n)
		for {
			moved := false
			var bestChild int
			bestBW := -1.0
			for _, c := range t.Children(cur) {
				if bw := est.Throughput(c, n); bw >= curBW*0.95 && bw > bestBW {
					bestChild, bestBW = c, bw
				}
			}
			if bestBW >= 0 {
				cur, curBW = bestChild, bestBW
				moved = true
			}
			if !moved || t.Degree(cur) == 0 {
				break
			}
		}
		// Respect the degree bound by descending to the child with the
		// best bandwidth until a slot opens.
		for t.Degree(cur) >= maxDegree {
			var bestChild int
			bestBW := -1.0
			for _, c := range t.Children(cur) {
				if bw := est.Throughput(c, n); bw > bestBW {
					bestChild, bestBW = c, bw
				}
			}
			cur = bestChild
		}
		if err := t.Attach(n, cur); err != nil {
			return nil, err
		}
		est.Place(cur, n)
	}
	sort.Ints(t.Participants)
	return t, nil
}

// Handcrafted builds the §4.7 PlanetLab-style trees: nodes are ranked
// by measured available bandwidth from the root (pathload's role played
// by the static estimator) and packed into a complete maxDegree-ary
// tree level by level — descending order for the "good" tree (high
// bandwidth near the root), ascending for the "worst" tree.
func Handcrafted(rt *topology.Router, participants []int, root int, packetSize float64, maxDegree int, good bool) (*Tree, error) {
	if maxDegree < 1 {
		return nil, fmt.Errorf("overlay: maxDegree %d", maxDegree)
	}
	est := NewEstimator(rt, packetSize)
	type ranked struct {
		node int
		bw   float64
	}
	var rest []ranked
	for _, p := range participants {
		if p != root {
			rest = append(rest, ranked{node: p, bw: est.Throughput(root, p)})
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].bw != rest[j].bw {
			if good {
				return rest[i].bw > rest[j].bw
			}
			return rest[i].bw < rest[j].bw
		}
		return rest[i].node < rest[j].node
	})
	t := NewTree(root)
	queue := []int{root}
	qi := 0
	for _, r := range rest {
		for t.Degree(queue[qi]) >= maxDegree {
			qi++
		}
		if err := t.Attach(r.node, queue[qi]); err != nil {
			return nil, err
		}
		queue = append(queue, r.node)
	}
	sort.Ints(t.Participants)
	return t, nil
}

// BottleneckRate returns the minimum estimated per-edge throughput of
// the whole tree under fresh contention accounting: the §4.1 objective
// value, used by tests and the Overcast comparison.
func BottleneckRate(rt *topology.Router, t *Tree, packetSize float64) float64 {
	est := NewEstimator(rt, packetSize)
	min := math.Inf(1)
	var walk func(n int)
	walk = func(n int) {
		for _, c := range t.Children(n) {
			if r := est.Throughput(n, c); r < min {
				min = r
			}
			est.Place(n, c)
			walk(c)
		}
	}
	walk(t.Root)
	return min
}
