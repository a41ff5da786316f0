package experiments

import (
	"bullet"
	"bullet/internal/metrics"
	"bullet/internal/overlay"
	"bullet/internal/scenario"
	"bullet/internal/sim"
	"bullet/internal/topology"
)

// Dynamic-network experiments. Bullet's headline claim is resilience
// when available bandwidth shifts underneath the overlay; these runs
// exercise it directly by replaying a deterministic scenario of link
// mutations (failures, throttles, oscillations, flash crowds) against
// both Bullet and the plain tree streamer over the *same* topology,
// tree, and schedule, so the series differ only by protocol.
//
// Each run remains a pure function of (scale, seed): scenarios are
// built from graph state at deploy time and installed as fixed-time
// engine events.

// dynPhases are the three measurement windows around the disturbance:
// the event starts at t1 = Start + Duration/3 and ends (where the
// scenario has an end) at t2 = Start + 2*Duration/3.
func dynPhases(sc Scale) (t1, t2 sim.Time) {
	return sc.Start + sc.Duration/3, sc.Start + 2*sc.Duration/3
}

// phaseSummary records an arm's mean useful bandwidth over nodes in
// each phase, the after/before recovery ratio, and the mean over the
// whole stream. The overall mean keeps data a protocol never recovers
// (the streamer's outage losses) missing, while Bullet's mesh backfill
// makes the loss transient.
func phaseSummary(r *Result, sc Scale, v *armRun, nodes []int) {
	t1, t2 := dynPhases(sc)
	mean := func(from, to sim.Time) float64 {
		return v.col.MeanOverNodes(nodes, from, to, metrics.Useful)
	}
	pre := mean(t1-20*sim.Second, t1)
	post := mean(t2+10*sim.Second, sc.RunUntil)
	r.Summary[v.label+"_before_kbps"] = pre
	r.Summary[v.label+"_during_kbps"] = mean(t1+5*sim.Second, t2)
	r.Summary[v.label+"_after_kbps"] = post
	if pre > 0 {
		r.Summary[v.label+"_recovery_ratio"] = post / pre
	}
	r.Summary[v.label+"_overall_kbps"] = mean(sc.Start+10*sim.Second, sc.RunUntil)
}

// dynVictim picks the root child whose subtree is largest — the same
// "worst case" selection as the paper's failure experiments — and
// returns it with its degree-one access link.
func dynVictim(g *topology.Graph, tree *overlay.Tree) (victim, accessLink, descendants int) {
	victim, descendants = tree.HeaviestChild(tree.Root)
	if victim < 0 {
		return -1, -1, 0
	}
	return victim, g.AccessLink(victim), descendants
}

// versus runs Bullet and the plain tree streamer, at the same rate and
// window, as two copies of base (its tree, adversary and before hook)
// in independent worlds built from the same seed (hence identical
// topologies, link ids, and overlay trees), hands each finished run to
// report, and stamps the disturbance window. before runs once per
// world, but since the worlds are identical at t=0 it must install the
// same schedule.
func versus(r *Result, sc Scale, seed int64, base arm, report func(v *armRun)) (*Result, error) {
	mesh, stream := base, base
	mesh.label, mesh.proto = "bullet", bullet.BulletProtocol{Config: bulletConfig(sc, defaultRateKbps)}
	stream.label, stream.proto = "stream", bullet.StreamerProtocol{Config: streamConfig(sc, defaultRateKbps)}
	err := runArms(sc, seed,
		func(v *armRun) {
			r.addSeries(v.label+"_useful", v.col.Series(metrics.Useful))
			report(v)
		},
		mesh, stream)
	if err != nil {
		return nil, err
	}
	t1, t2 := dynPhases(sc)
	r.Summary["event_start_s"] = t1.ToSeconds()
	r.Summary["event_end_s"] = t2.ToSeconds()
	return r, nil
}

// dynCompare runs the same link scenario against both protocols over
// the random tree and reports both useful-bandwidth series plus
// per-phase means. build receives the graph and tree of a freshly
// deployed world and returns the scenario to install.
func dynCompare(name string, sc Scale, seed int64,
	build func(g *topology.Graph, tree *overlay.Tree) *scenario.Schedule) (*Result, error) {

	r := newResult(name)
	return versus(r, sc, seed,
		arm{before: func(v *armRun) { v.w.Scenario(build(v.w.Graph(), v.tree)) }},
		func(v *armRun) {
			// No node crashes or joins here, so the deployment's nodes
			// are exactly the tracked ones, in ascending order.
			phaseSummary(r, sc, v, v.d.Nodes())
			st := v.w.Network().Stats()
			r.Summary[v.label+"_link_down_drops"] = float64(st.LinkDownDrops)
			r.Summary[v.label+"_rerouted_packets"] = float64(st.ReroutedPackets)
		})
}

// DynBottleneck throttles the worst-case subtree's access link to 15%
// of its capacity for the middle third of the stream, then restores it.
// Bullet's mesh keeps the victim's descendants fed and backfills the
// victim after restoration; the streamer's subtree starves.
func DynBottleneck(sc Scale, seed int64) (*Result, error) {
	return dynCompare("Dynamic: transient bottleneck on the worst-case subtree", sc, seed,
		func(g *topology.Graph, tree *overlay.Tree) *scenario.Schedule {
			t1, t2 := dynPhases(sc)
			_, lid, _ := dynVictim(g, tree)
			s := scenario.New()
			if lid < 0 {
				return s
			}
			orig := g.Links[lid].Kbps()
			return s.At(t1, scenario.SetBandwidth(lid, orig*0.15)).
				At(t2, scenario.SetBandwidth(lid, orig))
		})
}

// DynPartition fails the worst-case subtree root's access link outright
// for the middle third of the stream — a transient partition. During
// the outage the victim is physically unreachable, but with Bullet its
// overlay descendants keep receiving via mesh peers and the victim
// recovers the missed data after the link heals; the streamer's subtree
// permanently loses everything sent during the outage.
func DynPartition(sc Scale, seed int64) (*Result, error) {
	return dynCompare("Dynamic: transient partition of the worst-case subtree", sc, seed,
		func(g *topology.Graph, tree *overlay.Tree) *scenario.Schedule {
			t1, t2 := dynPhases(sc)
			_, lid, _ := dynVictim(g, tree)
			s := scenario.New()
			if lid < 0 {
				return s
			}
			return s.At(t1, scenario.FailLink(lid)).
				At(t2, scenario.RestoreLink(lid))
		})
}

// DynFlashCrowd models a flash crowd of background traffic saturating
// every receiver's access link: all client access links except the
// source's drop to 35% capacity for the middle third of the stream,
// ramping back to full over ten steps afterwards.
func DynFlashCrowd(sc Scale, seed int64) (*Result, error) {
	return dynCompare("Dynamic: flash-crowd congestion on receiver access links", sc, seed,
		func(g *topology.Graph, tree *overlay.Tree) *scenario.Schedule {
			t1, t2 := dynPhases(sc)
			// Record original capacities at build time (t=0 state).
			links := make([]int, 0, len(g.Clients))
			orig := make([]float64, 0, len(g.Clients))
			for _, c := range g.Clients {
				if c == tree.Root {
					continue
				}
				if lid := g.AccessLink(c); lid >= 0 {
					links = append(links, lid)
					orig = append(orig, g.Links[lid].Kbps())
				}
			}
			s := scenario.New()
			s.At(t1, scenario.Func(func(env *scenario.Env) {
				for i, lid := range links {
					env.G.SetBandwidth(lid, orig[i]*0.35)
				}
			}))
			// Congestion drains gradually as the crowd disperses.
			rampDur := sc.Duration / 6
			s.Ramp(t2, rampDur, 10, func(frac float64) scenario.Action {
				return scenario.Func(func(env *scenario.Env) {
					for i, lid := range links {
						env.G.SetBandwidth(lid, orig[i]*(0.35+0.65*frac))
					}
				})
			})
			return s
		})
}

// DynOscillate flaps the worst-case subtree's access link between 20%
// and full capacity on a fixed period for the middle third of the
// stream — the oscillating-bottleneck workload.
func DynOscillate(sc Scale, seed int64) (*Result, error) {
	return dynCompare("Dynamic: oscillating bottleneck on the worst-case subtree", sc, seed,
		func(g *topology.Graph, tree *overlay.Tree) *scenario.Schedule {
			t1, t2 := dynPhases(sc)
			_, lid, _ := dynVictim(g, tree)
			s := scenario.New()
			if lid < 0 {
				return s
			}
			orig := g.Links[lid].Kbps()
			period := sc.Duration / 13
			cycles := int((t2 - t1) / period)
			if cycles < 1 {
				cycles = 1
			}
			s.Oscillate(t1, period, cycles,
				scenario.SetBandwidth(lid, orig*0.2),
				scenario.SetBandwidth(lid, orig))
			// Leave the link at full capacity after the last cycle.
			s.At(t2, scenario.SetBandwidth(lid, orig))
			return s
		})
}
