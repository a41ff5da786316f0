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
// rebuilt, a receiver's freshAt caches when its fresh queue's head
// passes the freshness gate, and a node's queued total counts what its
// receivers' queues hold. This runs a small world with a crash, a
// restart and a late join, and holds each live node to the state a
// rescan would compute:
//   - its ticket equals a Reset and an Add of every seq its working
//     set holds;
//   - a receiver's non-zero freshAt is its fresh head's arrival plus
//     freshnessDelay, and that head is still held;
//   - a receiver with an empty fresh queue has freshAt == 0, which is
//     what lets pumpTick skip a node with nothing queued;
//   - queued equals the sum of holes.len()+fresh.len() over its
//     receivers.
//
// A test timer checks every pumpInterval of virtual time and once
// more at the end. The tickets, whose rescan is the costly part, are
// checked for every live node at the first check after any node's
// refresh, so de-phased refreshes sample each node's window between
// its own trims.
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

	var tickets, slid, gated, busy int
	seen := map[*Node]uint64{} // refreshCount at the last check
	check := func(final bool) {
		refreshed := final
		sys.Members.Range(func(id int, n *Node) bool {
			if c, ok := seen[n]; !sys.Crashed(id) && (!ok || c != n.refreshCount) {
				seen[n] = n.refreshCount
				refreshed = true
			}
			return true
		})
		sys.Members.Range(func(id int, n *Node) bool {
			if sys.Crashed(id) {
				return true
			}
			if refreshed {
				tickets++
				want := sketch.NewTicket(sys.perms)
				n.ws.ForRange(n.ws.Low(), n.ws.High(), func(seq uint64) bool { want.Add(seq); return true })
				if !reflect.DeepEqual(n.ticket.Clone(), want.Clone()) {
					t.Fatalf("t=%v node %d: ticket differs from a rebuild over its %d held seqs [%d, %d]",
						w.eng.Now(), id, n.ws.Len(), n.ws.Low(), n.ws.High())
				}
				if n.ws.Low() > 0 {
					slid++
				}
			}
			queued := 0
			for _, rf := range n.receivers {
				queued += rf.holes.len() + rf.fresh.len()
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
			if n.queued != queued {
				t.Fatalf("t=%v node %d: queued %d, but its %d receivers' queues hold %d",
					w.eng.Now(), id, n.queued, len(n.receivers), queued)
			}
			if queued > 0 {
				busy++
			}
			return true
		})
	}
	w.eng.Every(pumpInterval, func() { check(false) })

	victim := tree.Participants[3]
	w.eng.ScheduleAfter(15*sim.Second, func() {
		if err := sys.Crash(victim); err != nil {
			t.Error(err)
		}
	})
	w.eng.ScheduleAfter(22*sim.Second, func() {
		if err := sys.Join(joiner); err != nil {
			t.Error(err)
		}
	})
	w.eng.ScheduleAfter(27*sim.Second, func() {
		if err := sys.Restart(victim); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run(60 * sim.Second)
	check(true)

	t.Logf("%d ticket checks, %d past a window trim; %d gated receivers; %d node checks with queued work",
		tickets, slid, gated, busy)
	if slid == 0 || gated == 0 || busy == 0 {
		t.Fatalf("vacuous run: %d ticket checks past a window trim, %d gated receivers, %d node checks with queued work",
			slid, gated, busy)
	}
	for _, id := range []int{victim, joiner} {
		if n := sys.Members.At(id); sys.Crashed(id) || n.ws.Low() == 0 {
			t.Fatalf("node %d: crashed %v, window low %d: churned node never slid its window", id, sys.Crashed(id), n.ws.Low())
		}
	}
}
