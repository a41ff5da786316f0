package ransub

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/sketch"
	"bullet/internal/topology"
	"bullet/internal/transport"
)

func TestCompactSizeAndMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func(ids ...int) []Entry {
		var es []Entry
		for _, id := range ids {
			es = append(es, Entry{Node: id})
		}
		return es
	}
	out := Compact(rng, 4, []Group{
		{Entries: mk(1, 2, 3), Population: 30},
		{Entries: mk(4, 5), Population: 2},
	})
	if len(out) != 4 {
		t.Fatalf("size=%d want 4", len(out))
	}
	seen := map[int]bool{}
	for _, e := range out {
		if e.Node < 1 || e.Node > 5 {
			t.Fatalf("alien entry %d", e.Node)
		}
		if seen[e.Node] {
			t.Fatalf("duplicate entry %d (sampling with replacement?)", e.Node)
		}
		seen[e.Node] = true
	}
}

func TestCompactWeighting(t *testing.T) {
	// Group A has population 1000 sampled by 2 entries; group B has
	// population 10 sampled by 2 entries. Picking 2 of the 4, A's
	// members must dominate across trials.
	rng := rand.New(rand.NewSource(2))
	countA := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		out := Compact(rng, 2, []Group{
			{Entries: []Entry{{Node: 1}, {Node: 2}}, Population: 1000},
			{Entries: []Entry{{Node: 3}, {Node: 4}}, Population: 10},
		})
		for _, e := range out {
			if e.Node <= 2 {
				countA++
			}
		}
	}
	frac := float64(countA) / float64(2*trials)
	if frac < 0.9 {
		t.Fatalf("high-population group underrepresented: %.3f", frac)
	}
}

func TestCompactEmptyAndSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if out := Compact(rng, 5, nil); len(out) != 0 {
		t.Fatalf("compact of nothing = %v", out)
	}
	out := Compact(rng, 10, []Group{{Entries: []Entry{{Node: 7}}, Population: 1}})
	if len(out) != 1 || out[0].Node != 7 {
		t.Fatalf("small compact = %v", out)
	}
	// Zero-population groups are ignored.
	out = Compact(rng, 10, []Group{{Entries: []Entry{{Node: 9}}, Population: 0}})
	if len(out) != 0 {
		t.Fatal("zero-population group sampled")
	}
}

// referenceCompact is the plain form of Compact: a fresh candidate slice
// per call, sorted with sort.Slice. TestCompactorMatchesReference holds
// the scratch-reusing compactor to it.
func referenceCompact(rng *rand.Rand, size int, groups []Group) []Entry {
	type keyed struct {
		e   Entry
		key float64
	}
	var all []keyed
	for _, g := range groups {
		if len(g.Entries) == 0 || g.Population <= 0 {
			continue
		}
		w := float64(g.Population) / float64(len(g.Entries))
		for _, e := range g.Entries {
			all = append(all, keyed{e: e, key: rng.ExpFloat64() / w})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	if len(all) > size {
		all = all[:size]
	}
	out := make([]Entry, len(all))
	for i, k := range all {
		out[i] = k.e
	}
	return out
}

// One reused compactor and the reference, fed identically seeded RNGs,
// must return the same sets call after call. Every third call is large
// and the rest small, so the scratch shrinks and regrows between calls
// and a stale candidate would surface; after each call no slot of the
// scratch's capacity may still hold a ticket.
func TestCompactorMatchesReference(t *testing.T) {
	perms := sketch.NewPermutations(sketch.DefaultEntries, 1)
	tickets := make([]*sketch.Ticket, 16)
	for i := range tickets {
		tickets[i] = sketch.NewTicket(perms)
	}
	gen := rand.New(rand.NewSource(29))
	refRNG, gotRNG := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var c compactor
	node := 0
	for call := 0; call < 2000; call++ {
		maxPer := 4
		if call%3 == 0 {
			maxPer = 40
		}
		groups := make([]Group, gen.Intn(7))
		for g := range groups {
			es := make([]Entry, gen.Intn(maxPer+1))
			for i := range es {
				node++
				es[i] = Entry{Node: node, Ticket: tickets[node%len(tickets)]}
			}
			pop := 0 // one group in five is an empty population
			if gen.Intn(5) > 0 {
				pop = 1 + gen.Intn(1000)
			}
			groups[g] = Group{Entries: es, Population: pop}
		}
		size := 1 + gen.Intn(12)
		want := referenceCompact(refRNG, size, groups)
		got := c.compact(gotRNG, size, groups)
		if !slices.Equal(got, want) {
			t.Fatalf("call %d (size %d, %d groups): compactor %v, reference %v", call, size, len(groups), got, want)
		}
		for i, k := range c.all[:cap(c.all)] {
			if k.e.Ticket != nil {
				t.Fatalf("call %d: scratch slot %d of %d still holds a ticket", call, i, cap(c.all))
			}
		}
	}
}

// distributeShape is the shape sendDistributes compacts at the paper's
// defaults: three groups of ten entries for a set of ten.
func distributeShape() []Group {
	perms := sketch.NewPermutations(sketch.DefaultEntries, 1)
	tk := sketch.NewTicket(perms)
	groups := make([]Group, 3)
	for g := range groups {
		groups[g].Population = 10 * (g + 1)
		for e := 0; e < 10; e++ {
			groups[g].Entries = append(groups[g].Entries, Entry{Node: g*10 + e, Ticket: tk})
		}
	}
	return groups
}

func TestCompactAllocatesOnlyItsOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	groups := distributeShape()
	var c compactor
	c.compact(rng, 10, groups) // grows the scratch
	if got := testing.AllocsPerRun(100, func() { c.compact(rng, 10, groups) }); got != 1 {
		t.Fatalf("compact allocates %v objects per call, want 1 (its output)", got)
	}
}

func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	groups := distributeShape()
	var c compactor
	b.ReportAllocs()
	for b.Loop() {
		c.compact(rng, 10, groups)
	}
}

// world wires RanSub agents for all clients over a random tree.
type world struct {
	eng    *sim.Engine
	net    *netem.Network
	g      *topology.Graph
	tree   *overlay.Tree
	agents map[int]*Agent
	eps    map[int]*transport.Endpoint
}

func buildWorld(t *testing.T, seed int64, clients int, cfg Config) *world {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 8, StubDomainSize: 5,
		Clients: clients, Bandwidth: topology.MediumBandwidth, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	net := netem.New(eng, g, topology.NewRouter(g), netem.Config{})
	tree, err := overlay.Random(g.Clients, g.Clients[0], 4, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	w := &world{eng: eng, net: net, g: g, tree: tree,
		agents: make(map[int]*Agent), eps: make(map[int]*transport.Endpoint)}
	perms := sketch.NewPermutations(sketch.DefaultEntries, seed)
	for _, n := range g.Clients {
		ep := transport.NewEndpoint(net, n)
		parent := -1
		if p, ok := tree.Parent(n); ok {
			parent = p
		}
		ag := NewAgent(ep, cfg, parent, tree.Children(n))
		node := n
		tk := sketch.NewTicket(perms)
		tk.Add(uint64(node)) // distinct ticket content per node
		ag.TicketFn = func() *sketch.Ticket { return tk }
		ep.OnControl(func(from int, payload any, size int) {
			ag.HandleControl(from, payload)
		})
		w.agents[n] = ag
		w.eps[n] = ep
	}
	return w
}

func TestRanSubDeliversToAll(t *testing.T) {
	w := buildWorld(t, 1, 30, DefaultConfig())
	got := make(map[int]int)
	for n, ag := range w.agents {
		n := n
		ag.OnDistribute = func(epoch int, set []Entry) { got[n]++ }
	}
	w.agents[w.tree.Root].Start()
	w.eng.Run(30 * sim.Second)
	for _, n := range w.g.Clients {
		if n == w.tree.Root {
			continue
		}
		if got[n] < 3 {
			t.Fatalf("node %d received %d distributes in 30s (epoch 5s)", n, got[n])
		}
	}
}

func TestRanSubNondescendants(t *testing.T) {
	w := buildWorld(t, 2, 30, DefaultConfig())
	bad := 0
	for n, ag := range w.agents {
		n := n
		ag.OnDistribute = func(epoch int, set []Entry) {
			for _, e := range set {
				if e.Node != n && w.tree.IsDescendant(n, e.Node) {
					bad++
				}
				if e.Node == n {
					bad++ // a node must not be offered itself
				}
			}
		}
	}
	w.agents[w.tree.Root].Start()
	w.eng.Run(40 * sim.Second)
	if bad > 0 {
		t.Fatalf("%d descendant/self entries leaked into distribute sets", bad)
	}
}

func TestRanSubSetSizeBounded(t *testing.T) {
	w := buildWorld(t, 3, 25, DefaultConfig())
	for _, ag := range w.agents {
		ag.OnDistribute = func(epoch int, set []Entry) {
			if len(set) > setSize {
				t.Fatalf("set size %d > %d", len(set), setSize)
			}
			for _, e := range set {
				if e.Ticket == nil {
					t.Fatal("entry without ticket")
				}
			}
		}
	}
	w.agents[w.tree.Root].Start()
	w.eng.Run(20 * sim.Second)
}

func TestRanSubDescendantCounts(t *testing.T) {
	w := buildWorld(t, 4, 30, DefaultConfig())
	w.agents[w.tree.Root].Start()
	w.eng.Run(30 * sim.Second)
	for _, n := range w.g.Clients {
		ag := w.agents[n]
		for _, c := range w.tree.Children(n) {
			want := w.tree.Descendants(c)
			if got := ag.ChildSubtreeSize(c) - 1; got != want {
				t.Fatalf("node %d child %d descendants=%d want %d", n, c, got, want)
			}
		}
	}
}

func TestRanSubUniformity(t *testing.T) {
	// Over many epochs, each non-descendant of a leaf should appear in
	// its distribute sets with roughly equal frequency.
	w := buildWorld(t, 5, 20, DefaultConfig())
	// Pick a leaf.
	var leaf int
	for _, n := range w.g.Clients {
		if len(w.tree.Children(n)) == 0 {
			leaf = n
			break
		}
	}
	freq := make(map[int]int)
	epochs := 0
	w.agents[leaf].OnDistribute = func(epoch int, set []Entry) {
		epochs++
		for _, e := range set {
			freq[e.Node]++
		}
	}
	w.agents[w.tree.Root].Start()
	w.eng.Run(300 * sim.Second)
	if epochs < 50 {
		t.Fatalf("only %d epochs", epochs)
	}
	// 19 candidates, 10 slots: expectation ~ epochs*10/19 each.
	exp := float64(epochs) * 10.0 / 19.0
	for _, n := range w.g.Clients {
		if n == leaf {
			continue
		}
		got := float64(freq[n])
		if got < exp*0.5 || got > exp*1.5 {
			t.Fatalf("node %d appeared %v times, expected ~%v (non-uniform)", n, got, exp)
		}
	}
}

func TestRanSubFailureDetection(t *testing.T) {
	cfg := DefaultConfig()
	w := buildWorld(t, 6, 30, cfg)
	root := w.tree.Root
	kids := w.tree.Children(root)
	if len(kids) == 0 {
		t.Skip("root has no children in this draw")
	}
	victim := kids[0]
	w.agents[root].Start()
	w.eng.Run(20 * sim.Second)
	before := w.agents[root].epoch
	w.eps[victim].Fail()
	w.eng.Run(60 * sim.Second)
	after := w.agents[root].epoch
	if after-before < 2 {
		t.Fatalf("epochs stalled after child failure with detection on: %d -> %d", before, after)
	}
}

func TestRanSubStallsWithoutFailureDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailureDetection = false
	w := buildWorld(t, 7, 30, cfg)
	root := w.tree.Root
	kids := w.tree.Children(root)
	if len(kids) == 0 {
		t.Skip("root has no children in this draw")
	}
	victim := kids[0]
	w.agents[root].Start()
	w.eng.Run(20 * sim.Second)
	w.eps[victim].Fail()
	w.eng.Run(5 * sim.Second) // let in-flight epochs settle
	stalled := w.agents[root].epoch
	w.eng.Run(120 * sim.Second)
	if got := w.agents[root].epoch; got > stalled+1 {
		t.Fatalf("epochs advanced (%d -> %d) despite disabled failure detection", stalled, got)
	}
}

func TestRanSubEpochPacing(t *testing.T) {
	// Epochs must not run faster than the configured minimum length.
	cfg := DefaultConfig()
	w := buildWorld(t, 8, 15, cfg)
	w.agents[w.tree.Root].Start()
	w.eng.Run(52 * sim.Second)
	if got := w.agents[w.tree.Root].epoch; got > 11 {
		t.Fatalf("%d epochs in 52s with 5s minimum", got)
	}
}

// Membership: removing a crashed child keeps the collect/distribute
// wave moving without relying on the root's failure-detection timeout.
func TestRemoveChildUnblocksWave(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailureDetection = false // removal alone must keep epochs going
	w := buildWorld(t, 5, 30, cfg)
	root := w.tree.Root
	// Victim: the root child with the largest subtree, so the stall
	// would be maximal without removal.
	victim, _ := w.tree.HeaviestChild(root)
	if victim < 0 {
		t.Fatal("no root child")
	}
	w.agents[root].Start()
	w.eng.Run(12 * sim.Second)
	atCrash := w.agents[root].epoch
	w.eps[victim].Fail()
	w.agents[root].RemoveChild(victim)
	w.eng.Run(60 * sim.Second)
	after := w.agents[root].epoch
	if after-atCrash < 3 {
		t.Fatalf("only %d epochs completed in ~48s after crash+removal (epoch 5s): wave stalled",
			after-atCrash)
	}
	// The victim must no longer be waited on or listed.
	for _, c := range w.agents[root].children {
		if c == victim {
			t.Fatal("victim still listed as child")
		}
	}
}

// Membership list manipulation: AddChild dedups, RemoveChild of an
// unknown child is a no-op, SetParent re-homes the agent.
func TestMembershipAccessors(t *testing.T) {
	w := buildWorld(t, 6, 10, DefaultConfig())
	leafID := -1
	for _, n := range w.g.Clients {
		if len(w.tree.Children(n)) == 0 {
			leafID = n
			break
		}
	}
	if leafID < 0 {
		t.Fatal("no leaf")
	}
	ag := w.agents[leafID]
	if len(ag.children) != 0 {
		t.Fatal("leaf has children")
	}
	ag.AddChild(42)
	ag.AddChild(42)
	if got := ag.children; len(got) != 1 || got[0] != 42 {
		t.Fatalf("children after dup add: %v", got)
	}
	ag.RemoveChild(99) // unknown: no-op
	ag.RemoveChild(42)
	if len(ag.children) != 0 {
		t.Fatal("child not removed")
	}
	if ag.IsRoot() {
		t.Fatal("leaf reports root")
	}
	ag.SetParent(-1)
	if !ag.IsRoot() {
		t.Fatal("SetParent(-1) did not make agent a root")
	}
}

// A distribute round takes one snapshot of the sender's ticket and every
// child's set shares it: the snapshot equals the ticket at send time and
// does not follow the ticket's later Adds.
func TestDistributeSharesOneOwnTicket(t *testing.T) {
	w := buildWorld(t, 9, 30, DefaultConfig())
	x := -1
	for _, n := range w.g.Clients {
		if len(w.tree.Children(n)) >= 3 {
			x = n
			break
		}
	}
	if x < 0 {
		t.Fatal("no node with three children in this draw")
	}
	ag := w.agents[x]
	live := ag.TicketFn()
	calls := 0
	real := ag.TicketFn
	ag.TicketFn = func() *sketch.Ticket { calls++; return real() }
	sets := make(map[int][]Entry)
	for _, c := range ag.children {
		c := c
		w.eps[c].OnControl(func(from int, payload any, size int) {
			if m, ok := payload.(*distributeMsg); ok && from == x {
				sets[c] = m.set
			}
		})
	}
	want := live.Clone()
	ag.sendDistributes(distributeMsg{epoch: 1})
	if calls != 1 {
		t.Fatalf("one distribute round to %d children called TicketFn %d times, want 1", len(ag.children), calls)
	}
	w.eng.Run(5 * sim.Second)

	var snap *sketch.Ticket
	for _, c := range ag.children {
		set, ok := sets[c]
		if !ok {
			t.Fatalf("child %d received no distribute", c)
		}
		i := slices.IndexFunc(set, func(e Entry) bool { return e.Node == x })
		if i < 0 {
			t.Fatalf("child %d's set %v lacks the sender's own entry", c, set)
		}
		switch {
		case snap == nil:
			snap = set[i].Ticket
		case set[i].Ticket != snap:
			t.Fatalf("child %d holds its own copy of the sender's ticket", c)
		}
	}
	if snap == live {
		t.Fatal("sets hold the live ticket, not a snapshot")
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatal("snapshot differs from the ticket at send time")
	}
	for s := uint64(0); s < 5000; s++ {
		live.Add(1<<30 + s)
	}
	if reflect.DeepEqual(live, want) {
		t.Fatal("later Adds left the live ticket unchanged; the check below would prove nothing")
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatal("snapshot followed the ticket's later Adds")
	}
}

// A node without children sends no distribute and takes no snapshot.
func TestLeafDistributeTakesNoSnapshot(t *testing.T) {
	w := buildWorld(t, 9, 30, DefaultConfig())
	for _, n := range w.g.Clients {
		if len(w.tree.Children(n)) > 0 {
			continue
		}
		ag := w.agents[n]
		calls := 0
		real := ag.TicketFn
		ag.TicketFn = func() *sketch.Ticket { calls++; return real() }
		ag.sendDistributes(distributeMsg{epoch: 1})
		if calls != 0 {
			t.Fatalf("leaf %d called TicketFn %d times for a distribute round", n, calls)
		}
		return
	}
	t.Fatal("no leaf")
}
