package experiments

import (
	"math/rand"

	"bullet"
	"bullet/internal/metrics"
	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/scenario"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// Membership-churn experiments: the paper's headline evaluation is not
// just static trees under lossy links — Bullet rides through *node*
// failures, with RanSub re-discovering peers and receivers
// re-installing Bloom filters elsewhere while orphans re-parent. These
// runs replay a deterministic schedule of crashes, restarts, and joins
// against both Bullet and the plain tree streamer (same topology, same
// tree, same schedule), so the series differ only by protocol.
//
// Bandwidth summaries are computed over the nodes still live at the
// end of the run: crashed nodes contribute zero forever, which would
// charge both protocols identically for the dead and hide the real
// difference — whether *survivors* keep receiving.

// churnCompare runs the same churn schedule against both protocols
// (see versus) over tree (nil: the random tree over every client) and
// reports both useful-bandwidth series plus survivor-based per-phase
// means. buildSched also returns the victim set (nodes the schedule
// crashes); the live descendants those victims orphan get their own
// orphan_* summaries — the sharpest protocol contrast, since Bullet
// re-parents them while the streamer lets them starve.
func churnCompare(name string, sc Scale, seed int64,
	tree func(w *bullet.World) (*overlay.Tree, error),
	buildSched func(g *topology.Graph, tree *overlay.Tree) (*scenario.Schedule, []int)) (*Result, error) {

	t1, t2 := dynPhases(sc)
	r := newResult(name)
	var orphans []int // of the run in flight, from its pre-churn tree
	return versus(r, sc, seed,
		arm{tree: tree, before: func(v *armRun) {
			sched, victims := buildSched(v.w.Graph(), v.tree)
			orphans = orphanedBy(v.tree, victims)
			v.w.Scenario(sched)
		}},
		func(v *armRun) {
			live := v.d.Nodes()
			phaseSummary(r, sc, v, live)
			r.Summary[v.label+"_live_nodes"] = float64(len(live))
			if len(orphans) > 0 {
				opre := v.col.MeanOverNodes(orphans, t1-20*sim.Second, t1, metrics.Useful)
				opost := v.col.MeanOverNodes(orphans, t2+10*sim.Second, sc.RunUntil, metrics.Useful)
				r.Summary[v.label+"_orphan_before_kbps"] = opre
				r.Summary[v.label+"_orphan_after_kbps"] = opost
				if opre > 0 {
					r.Summary[v.label+"_orphan_recovery_ratio"] = opost / opre
				}
			}
		})
}

// treeOver is the seeded random tree over the first num/den of the
// clients, drawn as World.RandomTree draws it over all of them: the
// clients left out can join later.
func treeOver(sc Scale, seed int64, num, den int) func(w *bullet.World) (*overlay.Tree, error) {
	return func(w *bullet.World) (*overlay.Tree, error) {
		c := w.Participants()
		members := c[:len(c)*num/den]
		return overlay.Random(members, members[0], sc.TreeDegree, rand.New(rand.NewSource(seed^0x74726565)))
	}
}

// orphanedBy returns the live descendants the victim set orphans in
// the (pre-churn) tree: every node below a victim that is not itself a
// victim, in sorted order.
func orphanedBy(tree *overlay.Tree, victims []int) []int {
	var victim, orphans nodeset.Set
	for _, v := range victims {
		victim.Add(v)
	}
	// A victim's subtree is walked from that victim, so the walk stops
	// at victims and reaches each orphan once.
	var collect func(n int)
	collect = func(n int) {
		for _, c := range tree.Children(n) {
			if !victim.Contains(c) && orphans.Add(c) {
				collect(c)
			}
		}
	}
	for _, v := range victims {
		collect(v)
	}
	return orphans.AppendIDs(nil)
}

// pickVictims selects every stride'th non-root participant in sorted
// order — a deterministic, tree-position-agnostic victim set.
func pickVictims(participants []int, root int, stride int) []int {
	var out []int
	i := 0
	for _, p := range participants {
		if p == root {
			continue
		}
		if i%stride == 0 {
			out = append(out, p)
		}
		i++
	}
	return out
}

// ChurnCrash25 is the mass-failure workload: 25% of the non-root
// overlay crashes at one instant mid-stream, and nobody comes back.
// Bullet's orphans re-parent and its mesh re-installs Bloom filters at
// live peers, so survivors recover their bandwidth; the streamer's
// orphaned subtrees starve for the rest of the run.
func ChurnCrash25(sc Scale, seed int64) (*Result, error) {
	return churnCompare("Churn: mass failure of 25% of the overlay", sc, seed, nil,
		func(g *topology.Graph, tree *overlay.Tree) (*scenario.Schedule, []int) {
			t1, _ := dynPhases(sc)
			victims := pickVictims(tree.Participants, tree.Root, 4)
			return scenario.New().At(t1, scenario.ChurnNodes(victims...)), victims
		})
}

// ChurnCrashHeal crashes the worst-case subtree root (the paper's
// "worst single failure" selection) mid-stream and restarts it at the
// two-thirds mark. Bullet re-parents the orphans within its failover
// delay and backfills the restarted node; the streamer's subtree
// starves during the outage and the restarted node rejoins with
// whatever keeps arriving — the outage data is gone.
func ChurnCrashHeal(sc Scale, seed int64) (*Result, error) {
	return churnCompare("Churn: worst-case subtree root crash and restart", sc, seed, nil,
		func(g *topology.Graph, tree *overlay.Tree) (*scenario.Schedule, []int) {
			t1, t2 := dynPhases(sc)
			victim, _ := tree.HeaviestChild(tree.Root)
			s := scenario.New()
			if victim < 0 {
				return s, nil
			}
			return s.At(t1, scenario.CrashNode(victim)).
				At(t2, scenario.RestartNode(victim)), []int{victim}
		})
}

// ChurnRolling is continuous membership churn: between the one-third
// and two-thirds marks, a new victim crashes at a fixed interval and
// each stays down for a sixth of the stream before restarting.
func ChurnRolling(sc Scale, seed int64) (*Result, error) {
	return churnCompare("Churn: rolling crash/restart wave", sc, seed, nil,
		func(g *topology.Graph, tree *overlay.Tree) (*scenario.Schedule, []int) {
			t1, t2 := dynPhases(sc)
			victims := pickVictims(tree.Participants, tree.Root, 6)
			if len(victims) == 0 {
				return scenario.New(), nil
			}
			interval := (t2 - t1) / sim.Duration(len(victims))
			return scenario.New().Churn(t1, interval, sc.Duration/6, victims...), victims
		})
}

// ChurnJoin is the flash-join workload: the overlay deploys over
// three quarters of the clients and the remaining quarter joins one by
// one between the one-third and two-thirds marks, each attached at the
// deterministic join point.
func ChurnJoin(sc Scale, seed int64) (*Result, error) {
	return churnCompare("Churn: late joiners attach mid-stream", sc, seed,
		treeOver(sc, seed, 3, 4),
		func(g *topology.Graph, tree *overlay.Tree) (*scenario.Schedule, []int) {
			t1, t2 := dynPhases(sc)
			var joiners []int
			for _, c := range g.Clients {
				if !tree.Contains(c) {
					joiners = append(joiners, c)
				}
			}
			s := scenario.New()
			if len(joiners) == 0 {
				return s, nil
			}
			interval := (t2 - t1) / sim.Duration(len(joiners))
			for i, j := range joiners {
				s.At(t1+sim.Duration(i)*interval, scenario.JoinNode(j))
			}
			return s, nil
		})
}

// ChurnXL is the scale-path smoke workload: a sustained mix of every
// membership operation at once. The overlay deploys over 7/8 of the
// clients; at the one-third mark 20% of the participants crash in one
// wave, then between the one-third and two-thirds marks the crashed
// nodes restart one by one while the held-out 1/8 of the clients join
// one by one. Every dense-state path is exercised together — mass
// repair iterating the whole participant table, tree surgery, peer
// teardown/re-peering, and table growth from joins. Run it at the xl
// scale (10,000-node topology, 400 participants) to prove the
// node-indexed data plane holds up beyond toy sizes; the schedule is
// derived from the participant count, so it composes with any scale.
func ChurnXL(sc Scale, seed int64) (*Result, error) {
	return churnCompare("Churn: sustained crash/restart/join mix (scale smoke)", sc, seed,
		treeOver(sc, seed, 7, 8),
		func(g *topology.Graph, tree *overlay.Tree) (*scenario.Schedule, []int) {
			t1, t2 := dynPhases(sc)
			victims := pickVictims(tree.Participants, tree.Root, 5)
			var joiners []int
			for _, c := range g.Clients {
				if !tree.Contains(c) {
					joiners = append(joiners, c)
				}
			}
			s := scenario.New()
			if len(victims) > 0 {
				s.At(t1, scenario.ChurnNodes(victims...))
				interval := (t2 - t1) / sim.Duration(len(victims)+1)
				for i, v := range victims {
					s.At(t1+sim.Duration(i+1)*interval, scenario.RestartNode(v))
				}
			}
			if len(joiners) > 0 {
				interval := (t2 - t1) / sim.Duration(len(joiners)+1)
				for i, j := range joiners {
					s.At(t1+sim.Duration(i+1)*interval, scenario.JoinNode(j))
				}
			}
			return s, victims
		})
}
