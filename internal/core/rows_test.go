package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mkNode builds a bare node with the given sender IDs and mods, for
// unit-testing row assignment logic without a network. Senders are
// inserted via addSender so the list ordering invariant (ascending by
// node id) holds, whatever order the map yields.
func mkNode(mods map[int]int) *Node {
	n := &Node{}
	ids := make([]int, 0, len(mods))
	for id := range mods {
		ids = append(ids, id)
	}
	// Insert in reverse sorted order to exercise the sorted insert.
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	for _, id := range ids {
		n.addSender(&senderInfo{node: id, mod: mods[id]})
	}
	return n
}

func assertPermutation(t *testing.T, n *Node) {
	t.Helper()
	s := len(n.senders)
	seen := make(map[int]bool)
	prev := -1
	for _, si := range n.senders {
		if si.node <= prev {
			t.Fatalf("sender list not sorted: %d after %d", si.node, prev)
		}
		prev = si.node
		if si.mod < 0 || si.mod >= s {
			t.Fatalf("sender %d mod %d out of [0,%d)", si.node, si.mod, s)
		}
		if seen[si.mod] {
			t.Fatalf("duplicate mod %d", si.mod)
		}
		seen[si.mod] = true
	}
}

func TestReassignRowsFromScratch(t *testing.T) {
	n := mkNode(map[int]int{10: -1, 20: -1, 30: -1})
	n.reassignRows()
	assertPermutation(t, n)
}

func TestReassignRowsStability(t *testing.T) {
	// Existing valid assignments must be preserved; only the new
	// sender (mod -1) gets a row.
	n := mkNode(map[int]int{10: 0, 20: 2, 30: 1, 40: -1})
	n.reassignRows()
	assertPermutation(t, n)
	if n.findSender(10).mod != 0 || n.findSender(20).mod != 2 || n.findSender(30).mod != 1 {
		t.Fatalf("stable mods changed: %v %v %v",
			n.findSender(10).mod, n.findSender(20).mod, n.findSender(30).mod)
	}
	if n.findSender(40).mod != 3 {
		t.Fatalf("new sender got mod %d, want 3", n.findSender(40).mod)
	}
}

func TestReassignRowsAfterShrink(t *testing.T) {
	// Dropping the sender with mod 0 from {0,1,2} leaves mods {1,2}
	// over a 2-row space; exactly one sender must be remapped.
	n := mkNode(map[int]int{20: 1, 30: 2})
	n.reassignRows()
	assertPermutation(t, n)
	// The sender whose mod was in range (1) must be untouched.
	if n.findSender(20).mod != 1 {
		t.Fatalf("in-range mod changed to %d", n.findSender(20).mod)
	}
	if n.findSender(30).mod != 0 {
		t.Fatalf("out-of-range sender remapped to %d, want 0", n.findSender(30).mod)
	}
}

// Property: reassignRows always yields a permutation of 0..s-1 and
// never changes an assignment that was already valid and unconflicted
// (lowest-id wins conflicts).
func TestReassignRowsProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true
		}
		n := &Node{}
		for i, m := range raw {
			n.addSender(&senderInfo{node: 100 + i, mod: int(m % 16)})
		}
		n.reassignRows()
		s := len(n.senders)
		seen := make(map[int]bool)
		for _, si := range n.senders {
			if si.mod < 0 || si.mod >= s || seen[si.mod] {
				return false
			}
			seen[si.mod] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// reassignRows runs on every peering change; once its scratch has grown
// to the sender count it allocates nothing, and its conflict scratch
// keeps no sender alive.
func TestReassignRowsAllocatesNothing(t *testing.T) {
	n := mkNode(map[int]int{10: 0, 20: 0, 30: -1, 40: 7, 50: 1})
	n.reassignRows()
	got := testing.AllocsPerRun(100, func() {
		for _, si := range n.senders {
			si.mod = -1 // every sender conflicts
		}
		n.reassignRows()
	})
	if got != 0 {
		t.Fatalf("reassignRows allocates %v objects per call, want 0", got)
	}
	assertPermutation(t, n)
	for i, si := range n.rowConflicts[:cap(n.rowConflicts)] {
		if si != nil {
			t.Fatalf("conflict scratch slot %d still holds sender %d", i, si.node)
		}
	}
}

func TestRotateRowsPreservesPermutation(t *testing.T) {
	n := mkNode(map[int]int{10: 0, 20: 1, 30: 2, 40: 3})
	before := map[int]int{}
	for _, si := range n.senders {
		before[si.node] = si.mod
	}
	n.rotateRows()
	assertPermutation(t, n)
	for _, si := range n.senders {
		if si.mod != (before[si.node]+1)%4 {
			t.Fatalf("sender %d rotated %d -> %d", si.node, before[si.node], si.mod)
		}
	}
}

func TestRotateRowsSingleSenderNoop(t *testing.T) {
	n := mkNode(map[int]int{10: 0})
	n.rotateRows()
	if n.findSender(10).mod != 0 {
		t.Fatal("single sender rotated")
	}
}

// The sorted-insert/find/remove helpers back every peer-list operation;
// pin their invariants directly.
func TestSenderListHelpers(t *testing.T) {
	n := &Node{}
	for _, id := range []int{5, 1, 9, 3, 7} {
		n.addSender(&senderInfo{node: id})
	}
	want := []int{1, 3, 5, 7, 9}
	for i, si := range n.senders {
		if si.node != want[i] {
			t.Fatalf("senders[%d]=%d want %d", i, si.node, want[i])
		}
	}
	if n.findSender(3) == nil || n.findSender(4) != nil {
		t.Fatal("findSender broken")
	}
	if !n.removeSender(5) || n.removeSender(5) {
		t.Fatal("removeSender broken")
	}
	if len(n.senders) != 4 || n.findSender(5) != nil {
		t.Fatal("removal left stale state")
	}
	for i, si := range n.senders {
		if si.node != []int{1, 3, 7, 9}[i] {
			t.Fatalf("order broken after removal: %d at %d", si.node, i)
		}
	}
}
