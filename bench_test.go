// Benchmarks: one per paper table/figure (regenerating the experiment
// at small scale and reporting the headline numbers as custom metrics)
// plus ablation benches for the design choices DESIGN.md calls out.
// Run with:
//
//	go test -bench=. -benchmem
//
// The custom metrics (useful_kbps, dup_ratio, ...) are the values
// EXPERIMENTS.md tracks against the paper.
package bullet_test

import (
	"testing"

	"bullet"
)

func benchExperiment(b *testing.B, id string, report func(b *testing.B, r *bullet.ExperimentResult)) {
	b.Helper()
	// B/op and allocs/op are gated by cmd/benchgate alongside ns/op, so
	// every experiment bench reports them even without -benchmem.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := bullet.RunExperiment(id, bullet.SmallScale, 42)
		if err != nil {
			b.Fatal(err)
		}
		if report != nil {
			report(b, r)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["generated.nodes"], "topo_nodes")
	})
}

func BenchmarkFig06(b *testing.B) {
	benchExperiment(b, "fig6", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("bottleneck_tree", 0.4), "bottleneck_kbps")
		b.ReportMetric(r.MeanTail("random_tree", 0.4), "random_kbps")
	})
}

func BenchmarkFig07(b *testing.B) {
	benchExperiment(b, "fig7", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("useful_total", 0.4), "useful_kbps")
		b.ReportMetric(r.MeanTail("raw_total", 0.4), "raw_kbps")
		b.ReportMetric(r.Summary["duplicate_ratio"], "dup_ratio")
		b.ReportMetric(r.Summary["control_overhead_kbps"], "control_kbps")
		b.ReportMetric(r.Summary["link_stress_avg"], "link_stress")
	})
}

// BenchmarkFig07Sharded is the same Figure 7 run partitioned into 4
// simulation shards. Its output (and so every reported metric) is
// byte-identical to BenchmarkFig07's; only ns/op should differ — this
// is the wall-clock win of the parallel engine on multi-core hosts.
func BenchmarkFig07Sharded(b *testing.B) {
	b.ReportAllocs()
	sc := bullet.SmallScale
	sc.Shards = 4
	for i := 0; i < b.N; i++ {
		r, err := bullet.RunExperiment("fig7", sc, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanTail("useful_total", 0.4), "useful_kbps")
		b.ReportMetric(r.Summary["duplicate_ratio"], "dup_ratio")
	}
}

func BenchmarkFig08(b *testing.B) {
	benchExperiment(b, "fig8", func(b *testing.B, r *bullet.ExperimentResult) {
		if len(r.CDF) > 0 {
			b.ReportMetric(r.CDF[len(r.CDF)/2], "median_kbps")
			b.ReportMetric(r.CDF[len(r.CDF)/10], "p10_kbps")
		}
	})
}

func BenchmarkFig09(b *testing.B) {
	benchExperiment(b, "fig9", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("bullet_low", 0.4), "bullet_low_kbps")
		b.ReportMetric(r.MeanTail("bottleneck_tree_low", 0.4), "tree_low_kbps")
		b.ReportMetric(r.MeanTail("bullet_high", 0.4), "bullet_high_kbps")
		b.ReportMetric(r.MeanTail("bottleneck_tree_high", 0.4), "tree_high_kbps")
	})
}

func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("useful_total", 0.4), "nondisjoint_useful_kbps")
	})
}

func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("bullet_useful", 0.4), "bullet_kbps")
		b.ReportMetric(r.MeanTail("gossip_useful", 0.4), "gossip_kbps")
		b.ReportMetric(r.MeanTail("antientropy_useful", 0.4), "antientropy_kbps")
	})
}

func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("bullet_low", 0.4), "bullet_low_kbps")
		b.ReportMetric(r.MeanTail("bottleneck_tree_low", 0.4), "tree_low_kbps")
	})
}

func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["useful_before_kbps"], "before_kbps")
		b.ReportMetric(r.Summary["useful_after_kbps"], "after_kbps")
	})
}

func BenchmarkFig14(b *testing.B) {
	benchExperiment(b, "fig14", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["useful_before_kbps"], "before_kbps")
		b.ReportMetric(r.Summary["useful_after_kbps"], "after_kbps")
	})
}

func BenchmarkFig15(b *testing.B) {
	benchExperiment(b, "fig15", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.MeanTail("bullet", 0.4), "bullet_kbps")
		b.ReportMetric(r.MeanTail("good_tree", 0.4), "good_tree_kbps")
		b.ReportMetric(r.MeanTail("worst_tree", 0.4), "worst_tree_kbps")
	})
}

// Dynamic-network benches: Bullet vs the streaming baseline under
// scenario-driven link mutations. The recovery metrics are the
// headline numbers of the dynamics subsystem.

func BenchmarkDynPartition(b *testing.B) {
	benchExperiment(b, "dyn-partition", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["bullet_recovery_ratio"], "bullet_recovery")
		b.ReportMetric(r.Summary["stream_recovery_ratio"], "stream_recovery")
		b.ReportMetric(r.Summary["bullet_overall_kbps"], "bullet_kbps")
		b.ReportMetric(r.Summary["stream_overall_kbps"], "stream_kbps")
	})
}

func BenchmarkDynBottleneck(b *testing.B) {
	benchExperiment(b, "dyn-bottleneck", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["bullet_during_kbps"], "bullet_during_kbps")
		b.ReportMetric(r.Summary["stream_during_kbps"], "stream_during_kbps")
	})
}

func BenchmarkDynFlashCrowd(b *testing.B) {
	benchExperiment(b, "dyn-flashcrowd", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["bullet_overall_kbps"], "bullet_kbps")
		b.ReportMetric(r.Summary["stream_overall_kbps"], "stream_kbps")
	})
}

func BenchmarkChurnCrash(b *testing.B) {
	benchExperiment(b, "churn-crash25", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["bullet_orphan_recovery_ratio"], "bullet_orphan_recovery")
		b.ReportMetric(r.Summary["stream_orphan_after_kbps"], "stream_orphan_kbps")
		b.ReportMetric(r.Summary["bullet_overall_kbps"], "bullet_kbps")
		b.ReportMetric(r.Summary["stream_overall_kbps"], "stream_kbps")
	})
}

// BenchmarkAdvFreeride is the adversary subsystem's headline bench:
// a quarter of the overlay free-rides from the one-third mark on, and
// the honest-subset floor ratios are the numbers the goodput-floor
// regression test asserts on (Bullet >= 0.5, streamer < 0.5).
func BenchmarkAdvFreeride(b *testing.B) {
	benchExperiment(b, "adv-freeride", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["bullet_honest_floor_ratio"], "bullet_floor")
		b.ReportMetric(r.Summary["stream_honest_floor_ratio"], "stream_floor")
		b.ReportMetric(r.Summary["bullet_honest_after_kbps"], "bullet_honest_kbps")
		b.ReportMetric(r.Summary["bullet_honest_min_kbps"], "bullet_min_kbps")
	})
}

// Workload benches: the same non-CBR workload disseminated by Bullet,
// the streamer, and gossip. The completion metrics are the headline
// numbers of the workload layer.

func BenchmarkFileDist(b *testing.B) {
	benchExperiment(b, "filedist-compare", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["bullet_first_frac"], "bullet_first_frac")
		b.ReportMetric(r.Summary["bullet_median_completion_s"], "bullet_median_s")
		b.ReportMetric(r.Summary["stream_median_completion_s"], "stream_median_s")
		b.ReportMetric(r.Summary["bullet_completed_frac"], "bullet_completed")
	})
}

func BenchmarkOvercast(b *testing.B) {
	benchExperiment(b, "overcast", func(b *testing.B, r *bullet.ExperimentResult) {
		b.ReportMetric(r.Summary["overcast_to_offline_ratio"], "ratio")
	})
}

// ---------------------------------------------------------------------
// Ablation benches (design choices from DESIGN.md §4). Each runs the
// Figure 7 configuration with one mechanism disabled and reports the
// resulting useful bandwidth and duplicate ratio for comparison with
// BenchmarkFig07.
// ---------------------------------------------------------------------

func benchAblation(b *testing.B, mutate func(*bullet.Config)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1500, Clients: 40, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		tree, err := w.RandomTree(5)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bullet.DefaultConfig(600)
		cfg.MaxSenders, cfg.MaxReceivers = 4, 4
		cfg.Start = 20 * bullet.Second
		cfg.Duration = 130 * bullet.Second
		mutate(&cfg)
		d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
		if err != nil {
			b.Fatal(err)
		}
		col := d.Collector()
		w.Run(150 * bullet.Second)
		b.ReportMetric(col.MeanOver(70*bullet.Second, 150*bullet.Second, bullet.Useful), "useful_kbps")
		b.ReportMetric(col.DuplicateRatio(), "dup_ratio")
	}
}

// BenchmarkAblationBaseline is the reference point for the ablations.
func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, func(c *bullet.Config) {})
}

// BenchmarkAblationNoDisjoint disables the Figure 5 disjoint send.
func BenchmarkAblationNoDisjoint(b *testing.B) {
	benchAblation(b, func(c *bullet.Config) { c.DisjointSend = false })
}

// BenchmarkAblationNoModRows disables sequence-matrix row partitioning.
func BenchmarkAblationNoModRows(b *testing.B) {
	benchAblation(b, func(c *bullet.Config) { c.ModRows = false })
}

// BenchmarkAblationRandomPeering replaces min-resemblance peer choice
// with a uniformly random choice from the RanSub set.
func BenchmarkAblationRandomPeering(b *testing.B) {
	benchAblation(b, func(c *bullet.Config) { c.MinResemblance = false })
}

// BenchmarkAblationNoEviction disables §3.4 sender/receiver
// re-evaluation.
func BenchmarkAblationNoEviction(b *testing.B) {
	benchAblation(b, func(c *bullet.Config) { c.Eviction = false })
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the substrates.
// ---------------------------------------------------------------------

// BenchmarkPaperScaleStartup measures the cold path to a deployed
// paper-scale overlay: generating the 20,000-node topology, building
// the 1000-participant random tree, and wiring a full Bullet
// deployment (endpoints, flows, RanSub agents, dense per-node state).
// This is the fixed cost every paper-scale run pays before the first
// virtual second, and the allocation counter is the canary for per-node
// state regressions at scale.
func BenchmarkPaperScaleStartup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := bullet.NewWorld(bullet.WorldConfig{
			TotalNodes: bullet.PaperScale.TopoNodes, Clients: bullet.PaperScale.Clients, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		tree, err := w.RandomTree(bullet.PaperScale.TreeDegree)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bullet.DefaultConfig(600)
		cfg.Start = bullet.PaperScale.Start
		cfg.Duration = bullet.PaperScale.Duration
		d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Collector().Nodes()), "participants")
	}
}

// BenchmarkMegaStartup measures the cold path at mega scale — a
// 100,000-node topology with 10,000 participants, five times the
// paper's configuration — plus a short sharded run of the deployed
// overlay's first virtual seconds. This bench is the canary for the
// subquadratic startup path: with flat per-source shortest-path trees
// it would take minutes and tens of gigabytes; on the hierarchical
// router, which fills its shared tables as the first queries need
// them, startup is a couple of seconds.
func BenchmarkMegaStartup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := bullet.NewWorld(bullet.WorldConfig{
			TotalNodes: bullet.MegaScale.TopoNodes, Clients: bullet.MegaScale.Clients,
			Seed: 42, Shards: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		tree, err := w.RandomTree(bullet.MegaScale.TreeDegree)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bullet.DefaultConfig(600)
		cfg.Start = bullet.MegaScale.Start
		cfg.Duration = bullet.MegaScale.Duration
		d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
		if err != nil {
			b.Fatal(err)
		}
		// A short pre-stream window: enough virtual time for the mesh
		// and RanSub control plane to start everywhere, proving the
		// sharded run path executes at this scale.
		w.Run(2 * bullet.Second)
		b.ReportMetric(float64(d.Collector().Nodes()), "participants")
		b.ReportMetric(float64(w.Shards()), "shards")
	}
}

func BenchmarkEmulatorPacketForwarding(b *testing.B) {
	b.ReportAllocs()
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1500, Clients: 40, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := w.RandomTree(5)
	if err != nil {
		b.Fatal(err)
	}
	d, err := w.Deploy(bullet.StreamerProtocol{Config: bullet.StreamConfig{
		RateKbps: 600, PacketSize: 1500, Start: 0, Duration: bullet.Time(b.N) * bullet.Second,
	}}, tree)
	if err != nil {
		b.Fatal(err)
	}
	col := d.Collector()
	b.ResetTimer()
	w.Run(bullet.Time(b.N) * bullet.Second)
	b.StopTimer()
	_ = col
}
