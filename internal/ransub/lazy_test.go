package ransub

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bullet/internal/sim"
	"bullet/internal/sketch"
)

// A leaf builds its key stream at its first compaction of two or more
// candidates. Scripted compactions of 0, 1 and 2+ candidates, in group
// shapes that include empty and zero-population groups, must give the
// sets Compact gives with the agent's stream built eagerly and drawn
// for every candidate: before the stream exists, when it is built and
// its owed draws replayed, and after, when 0- and 1-candidate
// compactions must draw again.
func TestLazyStreamMatchesEager(t *testing.T) {
	w := buildWorld(t, 3, 20, DefaultConfig())
	perms := sketch.NewPermutations(sketch.DefaultEntries, 3)
	tk := sketch.NewTicket(perms)
	gen := rand.New(rand.NewSource(41))
	node := 0
	// groupsOf spreads k candidates over a few groups and mixes in
	// groups that contribute none.
	groupsOf := func(k int) []Group {
		var gs []Group
		for k > 0 || gen.Intn(3) > 0 {
			switch gen.Intn(4) {
			case 0:
				gs = append(gs, Group{Population: 1 + gen.Intn(50)})
			case 1:
				gs = append(gs, Group{Entries: []Entry{{Node: -1, Ticket: tk}}})
			default:
				if k == 0 {
					continue
				}
				m := 1 + gen.Intn(k)
				es := make([]Entry, m)
				for i := range es {
					node++
					es[i] = Entry{Node: node, Ticket: tk}
				}
				gs = append(gs, Group{Entries: es, Population: m + gen.Intn(100)})
				k -= m
			}
		}
		return gs
	}
	for trial := range 40 {
		leaf := w.g.Clients[trial%len(w.g.Clients)]
		a := NewAgent(w.eps[leaf], DefaultConfig(), 0, nil)
		eager := newRNG(w.eps[leaf])
		if a.rng != nil {
			t.Fatal("an agent built without children holds a key stream")
		}
		lazy := 1 + gen.Intn(12) // compactions of 0 or 1 candidate before the first of 2+
		built := false
		for call := range 60 {
			k := gen.Intn(2)
			if call >= lazy && gen.Intn(3) == 0 {
				k = 2 + gen.Intn(25)
			}
			groups := groupsOf(k)
			if got := candidates(groups); got != k {
				t.Fatalf("script built %d candidates, want %d", got, k)
			}
			want := Compact(eager, setSize, groups)
			a.groups = append(a.groups, groups...)
			got := a.compactGroups()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d call %d (%d candidates, stream built %v): lazy %v, eager %v",
					trial, call, k, built, nodes(got), nodes(want))
			}
			if len(a.groups) != 0 {
				t.Fatalf("trial %d call %d: the group scratch keeps %d groups", trial, call, len(a.groups))
			}
			built = built || k > 1
			if (a.rng != nil) != built {
				t.Fatalf("trial %d call %d: stream built %v after %d candidates, want %v",
					trial, call, a.rng != nil, k, built)
			}
		}
		if !built {
			t.Fatalf("trial %d never compacted two candidates", trial)
		}
		// The streams must also agree on the next draw, so no owed draw
		// was left unreplayed or replayed twice.
		if x, y := a.rng.Int63(), eager.Int63(); x != y {
			t.Fatalf("trial %d: the lazy stream ends at %d, the eager one at %d", trial, x, y)
		}
	}
}

// RanSub over a tree in which a leaf gains a child through AddChild,
// and a leaf is rebuilt by a restart and later gains a child, must send
// the same sets when every agent builds its key stream eagerly.
func TestLazyStreamRunMatchesEager(t *testing.T) {
	run := func(eager bool) (log []string, lazyLeaves []*Agent) {
		w := buildWorld(t, 4, 30, DefaultConfig())
		record := func(n int, ag *Agent) {
			ag.OnDistribute = func(epoch int, set []Entry) {
				log = append(log, fmt.Sprint(w.eng.Now(), " D ", n, " ", epoch, " ", nodes(set)))
			}
			ag.StuffFn = func(set []Entry, desc int) ([]Entry, int) {
				log = append(log, fmt.Sprint(w.eng.Now(), " C ", n, " ", desc, " ", nodes(set)))
				return set, desc
			}
			if eager && ag.rng == nil {
				ag.rng = newRNG(ag.ep)
			}
		}
		for _, n := range w.g.Clients {
			record(n, w.agents[n])
		}
		var leaves []int
		for _, n := range w.g.Clients {
			if len(w.tree.Children(n)) == 0 {
				leaves = append(leaves, n)
			}
		}
		if len(leaves) < 4 {
			t.Fatalf("only %d leaves in this draw", len(leaves))
		}
		// adopt moves leaf c from its parent to the leaf p.
		adopt := func(p, c int) {
			old, _ := w.tree.Parent(c)
			w.agents[old].RemoveChild(c)
			w.agents[c].SetParent(p)
			w.agents[p].AddChild(c)
			lazyLeaves = append(lazyLeaves, w.agents[p])
			if !eager && (w.agents[p].rng != nil || w.agents[p].owed == 0) {
				t.Fatalf("leaf %d holds a stream (%v) or owes no draw (%d) when it gains a child",
					p, w.agents[p].rng != nil, w.agents[p].owed)
			}
		}
		w.agents[w.tree.Root].Start()
		w.eng.Run(12 * sim.Second)
		adopt(leaves[0], leaves[1])
		w.eng.Run(18 * sim.Second)
		// Restart leaves[2]: a fresh agent at the same tree position.
		r := leaves[2]
		parent, _ := w.tree.Parent(r)
		old := w.agents[r]
		ag := NewAgent(w.eps[r], DefaultConfig(), parent, nil)
		ag.TicketFn = old.TicketFn
		record(r, ag)
		w.agents[r] = ag
		w.eps[r].OnControl(func(from int, payload any, size int) { ag.HandleControl(from, payload) })
		w.eng.Run(30 * sim.Second)
		adopt(r, leaves[3])
		w.eng.Run(50 * sim.Second)
		return log, lazyLeaves
	}
	want, _ := run(true)
	got, leaves := run(false)
	for i, a := range leaves {
		if a.rng == nil {
			t.Fatalf("adopting leaf %d never built its stream", i)
		}
	}
	if len(want) < 100 {
		t.Fatalf("only %d sets sent", len(want))
	}
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("set %d of %d differs:\n lazy:  %s\n eager: %s", i, len(want), at(got, i), at(want, i))
	}
}

func nodes(set []Entry) []int {
	ids := make([]int, len(set))
	for i, e := range set {
		ids[i] = e.Node
	}
	return ids
}

func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "(none)"
}
