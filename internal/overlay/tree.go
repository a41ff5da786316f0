// Package overlay builds the distribution trees Bullet runs on top of:
// random degree-constrained trees, the paper's offline greedy bottleneck
// bandwidth tree (OMBT, §4.1) computed from global topology knowledge,
// an Overcast-like online bandwidth-optimizing tree, and the handcrafted
// good/worst trees of the PlanetLab experiment (§4.7).
package overlay

import (
	"fmt"
	"math/rand"
	"sort"

	"bullet/internal/nodeset"
)

// Tree is a rooted overlay tree over participant (graph-node) IDs.
// Parent and child links live in dense node-id-indexed tables (graph
// node ids are small integers), so membership checks and parent walks
// on the churn path are slice lookups, not map hashes.
type Tree struct {
	Root         int
	Participants []int
	parent       nodeset.Table[int] // -1 at the root
	children     nodeset.Table[[]int]
}

// NewTree creates a tree containing only the root.
func NewTree(root int) *Tree {
	t := &Tree{
		Root:         root,
		Participants: []int{root},
	}
	t.parent.Put(root, -1)
	return t
}

// Attach adds node as a child of parent. The parent must already be in
// the tree and the node must not be.
func (t *Tree) Attach(node, parent int) error {
	if !t.parent.Contains(parent) {
		return fmt.Errorf("overlay: parent %d not in tree", parent)
	}
	if t.parent.Contains(node) {
		return fmt.Errorf("overlay: node %d already in tree", node)
	}
	t.parent.Put(node, parent)
	t.children.Put(parent, append(t.children.At(parent), node))
	t.Participants = append(t.Participants, node)
	return nil
}

// Parent returns node's parent and true, or -1,false for the root or
// unknown nodes.
func (t *Tree) Parent(node int) (int, bool) {
	p, ok := t.parent.Get(node)
	if !ok || p < 0 {
		return -1, false
	}
	return p, true
}

// Children returns node's children (shared slice; do not mutate).
func (t *Tree) Children(node int) []int { return t.children.At(node) }

// Contains reports whether node is in the tree.
func (t *Tree) Contains(node int) bool {
	return t.parent.Contains(node)
}

// Degree returns the out-degree (children count) of node.
func (t *Tree) Degree(node int) int { return len(t.children.At(node)) }

// SubtreeSize returns the number of nodes in node's subtree, including
// itself.
func (t *Tree) SubtreeSize(node int) int {
	n := 1
	for _, c := range t.children.At(node) {
		n += t.SubtreeSize(c)
	}
	return n
}

// Descendants returns SubtreeSize - 1.
func (t *Tree) Descendants(node int) int { return t.SubtreeSize(node) - 1 }

// HeaviestChild returns the child of node with the most descendants
// (first wins on ties, so the result is deterministic) along with that
// descendant count, or (-1, -1) if node has no children. This is the
// "worst single failure" selection of the paper's §4.6 experiments,
// shared by the failure and dynamics scenarios.
func (t *Tree) HeaviestChild(node int) (child, descendants int) {
	child, descendants = -1, -1
	for _, k := range t.children.At(node) {
		if d := t.Descendants(k); d > descendants {
			descendants, child = d, k
		}
	}
	return child, descendants
}

// IsDescendant reports whether b lies in a's subtree (a is its own
// descendant for convenience in RanSub-nondescendants checks).
func (t *Tree) IsDescendant(a, b int) bool {
	for b != a {
		p, ok := t.parent.Get(b)
		if !ok || p < 0 {
			return false
		}
		b = p
	}
	return true
}

// Validate checks that the tree spans exactly the given participants,
// is acyclic, and every non-root node has a parent in the tree.
func (t *Tree) Validate(participants []int) error {
	if len(t.Participants) != len(participants) {
		return fmt.Errorf("overlay: tree has %d nodes, want %d", len(t.Participants), len(participants))
	}
	want := make(map[int]bool, len(participants))
	for _, p := range participants {
		want[p] = true
	}
	reached := 0
	var walk func(n int) error
	seen := make(map[int]bool)
	var err error
	walk = func(n int) error {
		if seen[n] {
			return fmt.Errorf("overlay: cycle through %d", n)
		}
		seen[n] = true
		reached++
		if !want[n] {
			return fmt.Errorf("overlay: unexpected node %d", n)
		}
		for _, c := range t.children.At(n) {
			if e := walk(c); e != nil {
				return e
			}
		}
		return nil
	}
	if err = walk(t.Root); err != nil {
		return err
	}
	if reached != len(participants) {
		return fmt.Errorf("overlay: reached %d of %d nodes", reached, len(participants))
	}
	return nil
}

// ReparentChildren detaches a single failed node and re-attaches its
// children — in their existing order — under the nearest live ancestor
// (node's own parent, for a direct call). It is the deterministic
// orphan re-parenting rule of the churn subsystem: no randomness, no
// load balancing, just promotion one level up. The promoted children
// are returned in attachment order. Removing the root is an error.
func (t *Tree) ReparentChildren(node int) ([]int, error) {
	p, ok := t.parent.Get(node)
	if !ok {
		return nil, fmt.Errorf("overlay: node %d not in tree", node)
	}
	if p < 0 {
		return nil, fmt.Errorf("overlay: cannot reparent children of root %d", node)
	}
	promoted := append([]int(nil), t.children.At(node)...)
	// Unlink node from its parent.
	cs := t.children.At(p)
	for i, c := range cs {
		if c == node {
			t.children.Put(p, append(cs[:i], cs[i+1:]...))
			break
		}
	}
	// Promote the children.
	for _, c := range promoted {
		t.parent.Put(c, p)
		t.children.Put(p, append(t.children.At(p), c))
	}
	t.parent.Delete(node)
	t.children.Delete(node)
	kept := t.Participants[:0]
	for _, q := range t.Participants {
		if q != node {
			kept = append(kept, q)
		}
	}
	t.Participants = kept
	return promoted, nil
}

// AttachPoint returns the deterministic join point for a new
// participant: the first node in breadth-first order (children in
// stored order) that passes the eligible filter and has out-degree
// below maxDegree. maxDegree < 1 means unbounded; a nil filter accepts
// every node. It returns -1 when no node qualifies (e.g. every
// candidate is filtered out).
func (t *Tree) AttachPoint(maxDegree int, eligible func(node int) bool) int {
	if !t.parent.Contains(t.Root) {
		return -1
	}
	queue := []int{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if (eligible == nil || eligible(n)) && (maxDegree < 1 || t.Degree(n) < maxDegree) {
			return n
		}
		queue = append(queue, t.children.At(n)...)
	}
	return -1
}

// MaxDegree returns the largest out-degree in the tree (0 for a
// single-node tree). Protocol systems use max(2, MaxDegree()) as the
// degree bound for runtime joins.
func (t *Tree) MaxDegree() int {
	max := 0
	for _, p := range t.Participants {
		if d := len(t.children.At(p)); d > max {
			max = d
		}
	}
	return max
}

// ConnectedToRoot reports whether n and every ancestor up to the root
// passes the live filter — i.e. whether data streamed from the root
// actually reaches n. A nil filter treats every node as live.
func (t *Tree) ConnectedToRoot(n int, live func(node int) bool) bool {
	for {
		if live != nil && !live(n) {
			return false
		}
		p, ok := t.parent.Get(n)
		if !ok {
			return false // not in the tree at all
		}
		if p < 0 {
			return n == t.Root
		}
		n = p
	}
}

// Random builds a random tree: participants are attached in random
// order to a uniformly random already-attached node with spare degree.
// This is the paper's "random tree" baseline.
func Random(participants []int, root int, maxDegree int, rng *rand.Rand) (*Tree, error) {
	if maxDegree < 1 {
		return nil, fmt.Errorf("overlay: maxDegree %d", maxDegree)
	}
	t := NewTree(root)
	order := make([]int, 0, len(participants))
	for _, p := range participants {
		if p != root {
			order = append(order, p)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	attached := []int{root}
	for _, n := range order {
		// Rejection-sample an attachment point with spare degree.
		for {
			cand := attached[rng.Intn(len(attached))]
			if t.Degree(cand) < maxDegree {
				if err := t.Attach(n, cand); err != nil {
					return nil, err
				}
				attached = append(attached, n)
				break
			}
		}
	}
	sort.Ints(t.Participants)
	return t, nil
}
