package core

import (
	"reflect"
	"testing"

	"bullet/internal/bloom"
	"bullet/internal/metrics"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// deployQuiet deploys Bullet on a small world whose stream starts long
// after any test window, so only the control traffic a test sends moves.
func deployQuiet(t *testing.T, cfg Config) (*testWorld, *System) {
	t.Helper()
	w := buildWorld(t, 11, 30, topology.MediumBandwidth, topology.NoLoss)
	cfg.Start = 100 * sim.Second
	cfg.Duration = 10 * sim.Second
	sys, err := Deploy(w.net, w.tree, cfg, metrics.NewCollector(sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	return w, sys
}

// One refresh round sends every sender the same filter snapshot: it
// equals the refresher's filter at send time and does not follow the
// filter's later Adds.
func TestRefreshSharesOneFilterSnapshot(t *testing.T) {
	cfg := DefaultConfig(600)
	cfg.MaxSenders = 2 // a is full, so it requests no peer of its own
	w, sys := deployQuiet(t, cfg)
	ps := w.tree.Participants
	a := sys.Members.At(ps[1])
	peers := []*Node{sys.Members.At(ps[2]), sys.Members.At(ps[3])}
	for _, p := range peers {
		flow, err := p.ep.OpenFlow(a.id, cfg.PacketSize)
		if err != nil {
			t.Fatal(err)
		}
		p.addReceiver(p.newReceiver(a.id, flow, nil, 0, 0))
		a.addSender(&senderInfo{node: p.id, mod: -1})
	}
	a.reassignRows()
	for s := uint64(0); s < 300; s++ {
		a.filter.Add(s)
	}
	want := a.filter.Clone()
	a.sendRefreshes()
	// Deliver, well before the first refresh or eval tick (5 s, 10 s).
	w.eng.Run(2 * sim.Second)

	snap := peers[0].findReceiver(a.id).filter
	if snap == nil || snap == a.filter {
		t.Fatalf("sender %d holds %p, want a snapshot of %p", peers[0].id, snap, a.filter)
	}
	for _, p := range peers[1:] {
		if got := p.findReceiver(a.id).filter; got != snap {
			t.Fatalf("sender %d holds filter %p, sender %d holds %p: want one snapshot", p.id, got, peers[0].id, snap)
		}
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatal("snapshot differs from the filter at send time")
	}
	for s := uint64(1000); s < 3000; s++ {
		a.filter.Add(s)
	}
	if reflect.DeepEqual(a.filter, want) {
		t.Fatal("later Adds left the filter unchanged; the check below would prove nothing")
	}
	if !reflect.DeepEqual(snap, want) {
		t.Fatal("snapshot followed the filter's later Adds")
	}
}

var sinkFilter *bloom.Filter

// A refresh round to k senders allocates one filter clone and the k
// messages. The refresher's endpoint is failed so that SendControl
// returns before the network and only sendRefreshes' own allocations
// are counted.
func TestRefreshAllocatesOneClonePerRound(t *testing.T) {
	_, sys := deployQuiet(t, DefaultConfig(600))
	n := sys.Members.At(sys.Tree().Participants[1])
	n.ep.Fail()
	clone := testing.AllocsPerRun(20, func() { sinkFilter = n.filter.Clone() })
	for k := 1; k <= 4; k++ {
		n.addSender(&senderInfo{node: 1000 + k, mod: -1})
		n.reassignRows()
		n.sendRefreshes()
		got := testing.AllocsPerRun(50, n.sendRefreshes)
		if want := clone + float64(k); got != want {
			t.Fatalf("refresh to %d senders allocates %v objects, want %v (one %v-object clone and %d messages)",
				k, got, want, clone, k)
		}
	}
}
