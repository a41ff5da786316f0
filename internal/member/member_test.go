package member

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"bullet/internal/adversary"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/topology"
	"bullet/internal/transport"
	"bullet/internal/workload"
)

type peer struct{ ep *transport.Endpoint }

func (p *peer) Endpoint() *transport.Endpoint { return p.ep }

// roster deploys a Roster over the given participant ids (the first is
// the source) of a small generated topology, added in the order given.
func roster(t *testing.T, tree *overlay.Tree, ids ...int) (*Roster[*peer], *netem.Network) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 2, TransitPerDomain: 3,
		StubDomains: 10, StubDomainSize: 5,
		Clients: 10, Bandwidth: topology.MediumBandwidth, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := netem.New(sim.NewEngine(1), g, topology.NewRouter(g), netem.Config{})
	r := new(Roster[*peer])
	if err := r.Init("test", net, ids[0], tree, metrics.NewCollector(sim.Second), workload.Stream{RateKbps: 600}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		r.Members.Put(id, &peer{transport.NewEndpoint(net, id)})
	}
	return r, net
}

// Init refuses a stream without a rate and a TreeRoot source without a
// tree; otherwise it resolves the source, defaults the packet size and
// arms completion tracking for a finite workload.
func TestRosterInit(t *testing.T) {
	_, net := roster(t, nil, 7)
	col := metrics.NewCollector(sim.Second)
	var r Roster[*peer]
	if err := r.Init("test", net, 7, nil, col, workload.Stream{}); err == nil || err.Error() != "test: rate 0 Kbps" {
		t.Fatalf("Init without a rate: %v", err)
	}
	if err := r.Init("test", net, TreeRoot, nil, col, workload.Stream{RateKbps: 600}); err == nil || err.Error() != "test: needs a tree" {
		t.Fatalf("Init(TreeRoot) without a tree: %v", err)
	}
	file := workload.File{RateKbps: 600, PacketSize: 1000, K: 100}
	if err := r.Init("test", net, TreeRoot, overlay.NewTree(7), col, workload.Stream{Workload: file}); err != nil {
		t.Fatal(err)
	}
	r.Members.Put(7, &peer{transport.NewEndpoint(net, 7)})
	if err := r.Crash(7); err == nil || err.Error() != "test: cannot crash the source 7" {
		t.Fatalf("the tree's root is not the source: %v", err)
	}
	if r.Protocol() != "test" || r.Stream.PacketSize != 1500 || r.Workload() != file || col.CompletionTarget() != file.Target() {
		t.Fatalf("Init applied protocol %q, packet size %d, workload %v, completion target %d",
			r.Protocol(), r.Stream.PacketSize, r.Workload(), col.CompletionTarget())
	}
}

// Every validation error, and the epoch accounting around it: +1 per
// successful Crash, Restart and Join, 0 on any error.
func TestRosterValidationAndEpoch(t *testing.T) {
	r, net := roster(t, nil, 7, 0, 60, 12)
	topo := len(net.Graph().Nodes)
	revive := func(p *peer) error { p.ep.Restart(); return nil }
	admit := func(id int) func() error {
		return func() error { r.Members.Put(id, &peer{transport.NewEndpoint(net, id)}); return nil }
	}
	refused := errors.New("policy refused")
	steps := []struct {
		name    string
		op      func() error
		wantErr string // substring; "" = success
	}{
		{"crash non-participant", func() error { return r.Crash(5) }, "test: node 5 is not a participant"},
		{"crash out of range", func() error { return r.Crash(-1) }, "node -1 is not a participant"},
		{"crash the source", func() error { return r.Crash(7) }, "test: cannot crash the source 7"},
		{"restart a live node", func() error { return r.Restart(12, revive) }, "test: node 12 is not crashed"},
		{"restart a non-participant", func() error { return r.Restart(5, revive) }, "test: node 5 is not crashed"},
		{"crash", func() error { return r.Crash(12) }, ""},
		{"crash again", func() error { return r.Crash(12) }, "test: node 12 already crashed"},
		{"join a crashed node", func() error { return r.Join(12, admit(12)) }, "test: node 12 crashed; use Restart"},
		{"join a participant", func() error { return r.Join(60, admit(60)) }, "test: node 60 is already a participant"},
		{"join below the topology", func() error { return r.Join(-1, admit(-1)) }, "test: node -1 is not in the topology"},
		{"join at the topology size", func() error { return r.Join(topo, admit(topo)) }, "is not in the topology"},
		{"join far outside", func() error { return r.Join(1<<28, admit(1<<28)) }, "is not in the topology"},
		{"join refused by policy", func() error { return r.Join(5, func() error { return refused }) }, "policy refused"},
		{"join", func() error { return r.Join(5, admit(5)) }, ""},
		{"restart refused by policy", func() error { return r.Restart(12, func(*peer) error { return refused }) }, "policy refused"},
		{"restart", func() error { return r.Restart(12, revive) }, ""},
		{"restart again", func() error { return r.Restart(12, revive) }, "test: node 12 is not crashed"},
	}
	for _, s := range steps {
		before, live := r.MemberEpoch(), r.Nodes()
		err := s.op()
		switch {
		case s.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", s.name, err)
		case s.wantErr == "" && r.MemberEpoch() != before+1:
			t.Fatalf("%s: epoch %d -> %d, want +1", s.name, before, r.MemberEpoch())
		case s.wantErr != "" && (err == nil || !strings.Contains(err.Error(), s.wantErr)):
			t.Fatalf("%s: error %v, want one containing %q", s.name, err, s.wantErr)
		case s.wantErr != "" && r.MemberEpoch() != before:
			t.Fatalf("%s: failed operation moved the epoch %d -> %d", s.name, before, r.MemberEpoch())
		case s.wantErr != "" && !reflect.DeepEqual(r.Nodes(), live):
			t.Fatalf("%s: failed operation changed the live set %v -> %v", s.name, live, r.Nodes())
		}
	}
	if r.MemberEpoch() != 3 {
		t.Fatalf("epoch %d after crash+join+restart, want 3", r.MemberEpoch())
	}
	if !r.Live(12) || r.Crashed(12) || r.Members.At(12).ep.Failed() {
		t.Fatal("restarted node is not live")
	}
	if _, ok := r.Members.Get(9); ok || r.Live(9) || r.Members.At(9) != nil {
		t.Fatal("non-participant 9 is visible")
	}
}

// Nodes, Range and Stop walk in ascending id order whatever the
// insertion order; crashed nodes drop out of Nodes and are not
// failed a second time by Stop; Stop is idempotent.
func TestRosterOrderAndStop(t *testing.T) {
	r, _ := roster(t, nil, 7, 0, 65, 33, 12)
	if err := r.Crash(33); err != nil {
		t.Fatal(err)
	}
	if got := r.Nodes(); !reflect.DeepEqual(got, []int{0, 7, 12, 65}) {
		t.Fatalf("Nodes=%v", got)
	}
	var walked []int
	r.Members.Range(func(id int, _ *peer) bool { walked = append(walked, id); return true })
	if !reflect.DeepEqual(walked, []int{0, 7, 12, 33, 65}) || r.Members.Len() != 5 {
		t.Fatalf("Range walked %v (Len %d), want all five ascending", walked, r.Members.Len())
	}
	// Revive the crashed node's endpoint behind the roster's back: Stop
	// must skip it (it is still dead), which shows teardown filters on
	// the dead set rather than failing everything.
	r.Members.At(33).ep.Restart()
	if r.Stopped() {
		t.Fatal("stopped before Stop")
	}
	r.Stop()
	for _, id := range walked {
		if failed := r.Members.At(id).ep.Failed(); failed != (id != 33) {
			t.Fatalf("after Stop node %d failed=%v", id, failed)
		}
	}
	// A second Stop is a no-op: endpoints restarted since stay up.
	r.Members.At(0).ep.Restart()
	r.Stop()
	if !r.Stopped() || r.Members.At(0).ep.Failed() {
		t.Fatal("second Stop tore down again")
	}
	if r.MemberEpoch() != 1 {
		t.Fatalf("Stop moved the epoch to %d", r.MemberEpoch())
	}
}

// Fail takes the endpoint down without touching membership.
func TestRosterFailIsSilent(t *testing.T) {
	r, _ := roster(t, nil, 7, 3)
	r.Fail(3)
	r.Fail(99) // not a participant: ignored
	if !r.Members.At(3).ep.Failed() || !r.Live(3) || r.MemberEpoch() != 0 {
		t.Fatalf("Fail: failed=%v live=%v epoch=%d", r.Members.At(3).ep.Failed(), r.Live(3), r.MemberEpoch())
	}
}

// Attach picks the first breadth-first node with spare degree whose
// whole ancestor chain is live, and reports when there is none.
func TestRosterAttach(t *testing.T) {
	// 1 -> {2, 3}, 2 -> {4, 5}: join degree max(2, 2) = 2.
	tree := overlay.NewTree(1)
	for _, e := range [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 2}} {
		if err := tree.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	r, _ := roster(t, tree, 1, 2, 3, 4, 5)
	if err := r.Crash(3); err != nil {
		t.Fatal(err)
	}
	// Root and 2 are full, 3 is dead: first eligible is 4.
	if ap, err := r.Attach(10); err != nil || ap != 4 {
		t.Fatalf("Attach(10) = %d, %v; want 4", ap, err)
	}
	if p, _ := tree.Parent(10); p != 4 {
		t.Fatalf("10 attached under %d", p)
	}
	// With 2 dead as well, 4, 5 and 10 are alive but orphaned.
	if err := r.Crash(2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Attach(11); err == nil || !strings.Contains(err.Error(), "test: no live attach point for node 11") {
		t.Fatalf("Attach with no connected spare node: %v", err)
	}
	if tree.Contains(11) {
		t.Fatal("failed Attach modified the tree")
	}
}

// The adversary hooks are dormant until a fleet is attached and struck:
// no fleet or a None fleet means every guard answers false, Compromise
// extends the colluder set, and Strike flips the guards.
func TestRosterAdversary(t *testing.T) {
	r, _ := roster(t, nil, 7, 3, 5)
	r.Compromise([]int{3}) // no fleet: ignored
	r.Strike()
	if r.Adversary() != nil || r.RefusesServe(3) || r.RefusesRelay(3) {
		t.Fatal("roster without a fleet is hostile")
	}
	ids := []int{7, 3, 5}
	r.SetAdversary(adversary.New(adversary.Config{Model: adversary.None}, ids, 7, 1))
	if r.Adversary() != nil {
		t.Fatal("a None fleet attached")
	}
	f := adversary.New(adversary.Config{Model: adversary.Freeride}, ids, 7, 1)
	r.SetAdversary(f)
	r.Compromise([]int{3})
	if r.Adversary() != f || !f.Is(3) || r.RefusesServe(3) || r.RefusesRelay(3) {
		t.Fatal("fleet must attach dormant, with 3 compromised")
	}
	r.Strike()
	if !r.RefusesServe(3) || !r.RefusesRelay(3) || r.RefusesRelay(7) {
		t.Fatal("after Strike exactly the colluders refuse")
	}
	r.SetAdversary(nil)
	if r.Adversary() != nil || r.RefusesServe(3) {
		t.Fatal("SetAdversary(nil) did not detach")
	}
}

// StrikeCrashes runs the crash-timing models through the crash and
// restart it is handed: Cutvertex crashes the heaviest cut vertex and
// records it as a colluder, Joinstorm crashes the live colluders (not
// the already dead one) and restarts each after its dwell.
func TestRosterStrikeCrashes(t *testing.T) {
	// build roots a tree at 1, attaches each (child, parent) edge and
	// arms a fleet of model over the tree's nodes.
	build := func(model adversary.Model, edges ...[2]int) (*Roster[*peer], *sim.Engine, *adversary.Fleet) {
		tree := overlay.NewTree(1)
		ids := []int{1}
		for _, e := range edges {
			if err := tree.Attach(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, e[0])
		}
		r, net := roster(t, tree, ids...)
		f := adversary.New(adversary.Config{Model: model}, ids, 1, 1)
		r.SetAdversary(f)
		return r, net.Engine(), f
	}
	var restarted []int
	restart := func(r *Roster[*peer]) func(int) error {
		return func(id int) error {
			restarted = append(restarted, id)
			return r.Restart(id, func(p *peer) error { p.ep.Restart(); return nil })
		}
	}

	// 1 -> {2, 3}, 2 -> {4, 5}: the heaviest cut vertex is 2.
	small := [][2]int{{2, 1}, {3, 1}, {4, 2}, {5, 2}}
	r, eng, f := build(adversary.Cutvertex, small...)
	r.StrikeCrashes(eng, r.Crash, restart(r))
	if !f.Active() || !r.Crashed(2) || !f.Is(2) || len(r.Nodes()) != 4 {
		t.Fatalf("cutvertex: active=%v crashed(2)=%v live=%v", f.Active(), r.Crashed(2), r.Nodes())
	}

	// Eight non-root nodes: the fleet's quarter is two colluders.
	r, eng, f = build(adversary.Joinstorm, append(small, [2]int{6, 3}, [2]int{7, 3}, [2]int{8, 4}, [2]int{9, 5})...)
	cols := append([]int(nil), f.Colluders()...)
	if len(cols) != 2 {
		t.Fatalf("joinstorm fleet chose %v, want 2 colluders", cols)
	}
	if err := r.Crash(cols[0]); err != nil { // already down: the burst skips it
		t.Fatal(err)
	}
	r.StrikeCrashes(eng, r.Crash, restart(r))
	if !r.Crashed(cols[1]) || eng.Pending() != 1 {
		t.Fatalf("joinstorm: crashed(%d)=%v, %d restarts pending", cols[1], r.Crashed(cols[1]), eng.Pending())
	}
	eng.Run(adversary.JoinstormMinDwell + adversary.JoinstormJitter)
	if len(restarted) != 1 || restarted[0] != cols[1] || !r.Live(cols[1]) || !r.Crashed(cols[0]) {
		t.Fatalf("joinstorm: restarted %v, live(%d)=%v", restarted, cols[1], r.Live(cols[1]))
	}
}
