package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/sim"
	"bullet/internal/sketch"
	"bullet/internal/topology"
)

// The refresh and pump paths keep incremental state in place of
// rescans: the summary ticket is expired and refilled rather than
// rebuilt, and a receiver's freshAt caches when its fresh queue's head
// passes the freshness gate. This runs a small world with a crash, a
// restart and a late join, and after every refresh holds each live
// node to the state a rescan would compute:
//   - its ticket equals a Reset and an Add of every seq its working
//     set holds;
//   - a receiver's non-zero freshAt is its fresh head's arrival plus
//     freshnessDelay, and that head is still held.
//
// Small packets (750 a second) make the 2,000-seq recovery window span
// less than half the gate's delay, so window trims regularly drop a
// gated head, and the run goes on past the stream's end until the
// fresh queues drain empty.
func TestIncrementalStateMatchesRescan(t *testing.T) {
	w := buildWorld(t, 21, 30, topology.MediumBandwidth, topology.NoLoss)
	clients := w.g.Clients
	joiner := clients[len(clients)-1]
	tree, err := overlay.Random(clients[:len(clients)-1], clients[0], 5, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(300)
	cfg.PacketSize = 50
	cfg.Start = 5 * sim.Second
	cfg.Duration = 40 * sim.Second
	sys, err := Deploy(w.net, tree, cfg, metrics.NewCollector(sim.Second))
	if err != nil {
		t.Fatal(err)
	}

	var refreshes, slid, gated int
	check := func() {
		refreshes++
		sys.Members.Range(func(id int, n *Node) bool {
			if sys.Crashed(id) {
				return true
			}
			want := sketch.NewTicket(sys.perms)
			n.ws.ForRange(n.ws.Low(), n.ws.High(), func(seq uint64) bool { want.Add(seq); return true })
			if !reflect.DeepEqual(n.ticket.Clone(), want.Clone()) {
				t.Fatalf("t=%v node %d: ticket differs from a rebuild over its %d held seqs [%d, %d]",
					w.eng.Now(), id, n.ws.Len(), n.ws.Low(), n.ws.High())
			}
			if n.ws.Low() > 0 {
				slid++
			}
			for _, rf := range n.receivers {
				if rf.freshAt == 0 {
					continue
				}
				gated++
				if rf.fresh.len() == 0 {
					t.Fatalf("t=%v node %d -> %d: freshAt %v with an empty fresh queue", w.eng.Now(), id, rf.node, rf.freshAt)
				}
				head := rf.fresh.peek()
				arrived, _ := n.arrivals.Get(head)
				if !n.ws.Held(head) || arrived+freshnessDelay != rf.freshAt {
					t.Fatalf("t=%v node %d -> %d: freshAt %v, but head %d (held %v) arrived at %v",
						w.eng.Now(), id, rf.node, rf.freshAt, head, n.ws.Held(head), arrived)
				}
			}
			return true
		})
	}
	// A refresh re-arms itself through n.refreshFn, so wrapping the
	// field checks every refresh after the first.
	watch := func(id int) {
		n := sys.Members.At(id)
		n.refreshFn = func() { n.refreshTick(); check() }
	}
	for _, id := range tree.Participants {
		watch(id)
	}

	victim := tree.Participants[3]
	w.eng.ScheduleAfter(15*sim.Second, func() {
		if err := sys.Crash(victim); err != nil {
			t.Error(err)
		}
	})
	w.eng.ScheduleAfter(22*sim.Second, func() {
		if err := sys.Join(joiner); err != nil {
			t.Error(err)
			return
		}
		watch(joiner)
	})
	w.eng.ScheduleAfter(27*sim.Second, func() {
		if err := sys.Restart(victim); err != nil {
			t.Error(err)
			return
		}
		watch(victim)
	})
	w.eng.Run(60 * sim.Second)

	t.Logf("%d refreshes: %d node checks past a window trim, %d gated receivers", refreshes, slid, gated)
	if slid == 0 || gated == 0 {
		t.Fatalf("vacuous run: %d node checks past a window trim, %d gated receivers", slid, gated)
	}
	for _, id := range []int{victim, joiner} {
		if n := sys.Members.At(id); sys.Crashed(id) || n.ws.Low() == 0 {
			t.Fatalf("node %d: crashed %v, window low %d: churned node never slid its window", id, sys.Crashed(id), n.ws.Low())
		}
	}
}
