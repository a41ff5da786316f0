package experiments

import (
	"testing"

	"bullet/internal/netem"
)

// TestShardStats runs Figure 7 sharded and checks the load-observability
// loop end to end: every shard reports its planned weight and measured
// load, the sink fires through arm.run, and the shards' events plus
// the global engine's add up to the serial run's.
func TestShardStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale run; skipped in -short")
	}
	var sunk []netem.ShardStat
	var sunkGlobal uint64
	sc := Small
	sc.Shards = 4
	sc.ShardStatsSink = func(l netem.RunLoad) {
		sunk = append(sunk[:0], l.Shards...)
		sunkGlobal = l.GlobalEvents
	}
	run, err := fig7Run(sc, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := run.w
	load := w.Network().RunLoad()
	stats := load.Shards
	if len(stats) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(stats))
	}
	if len(sunk) != len(stats) {
		t.Fatalf("sink saw %d shards, RunLoad reports %d", len(sunk), len(stats))
	}
	totalNodes, totalClients := 0, 0
	for i, s := range stats {
		if s.Shard != i {
			t.Errorf("stat %d has Shard=%d", i, s.Shard)
		}
		if s.Events == 0 {
			t.Errorf("shard %d executed no events", i)
		}
		if s.Weight == 0 {
			t.Errorf("shard %d has no planned weight", i)
		}
		if sunk[i].Events != s.Events {
			t.Errorf("shard %d: sink saw %d events, final stats %d", i, sunk[i].Events, s.Events)
		}
		totalNodes += s.Nodes
		totalClients += s.Clients
	}
	if totalNodes != len(w.Graph().Nodes) || totalClients != len(w.Graph().Clients) {
		t.Fatalf("stats cover %d nodes / %d clients, world has %d / %d",
			totalNodes, totalClients, len(w.Graph().Nodes), len(w.Graph().Clients))
	}

	// Executed-event identity: sharding neither adds nor drops logical
	// events, so the sharded run's total — shard engines plus the global
	// engine — must equal a serial run's single-engine count exactly.
	// (Figure 7 schedules everything through per-node schedulers, so a
	// zero global-engine count here is legitimate.)
	if sunkGlobal != load.GlobalEvents {
		t.Errorf("sink saw %d global events, final load %d", sunkGlobal, load.GlobalEvents)
	}
	srun, err := fig7Run(Small, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial := srun.w.Network().RunLoad()
	if serial.Shards != nil {
		t.Fatal("serial run reports shard stats")
	}
	if serial.TotalEvents() != load.TotalEvents() {
		t.Fatalf("event totals diverge: serial %d, sharded %d (shards %d + global %d)",
			serial.TotalEvents(), load.TotalEvents(),
			load.TotalEvents()-load.GlobalEvents, load.GlobalEvents)
	}
}
