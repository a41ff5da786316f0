package experiments

import (
	"bullet"
	"bullet/internal/metrics"
	"bullet/internal/scenario"
	"bullet/internal/sim"
)

// Adversary experiments: a seeded fraction of the overlay turns
// hostile mid-stream and the honest remainder's goodput is compared
// across Bullet and the plain tree streamer under the *identical*
// attack (same topology, same tree, same compromised set, same strike
// instant). The fleet stays dormant until the strike, so the pre-event
// phase of every run is byte-identical to a clean run and the
// before/after ratio is a true clean-vs-attacked comparison.
//
// Summaries are computed over the honest subset only — colluders
// (including cut-vertex victims recorded at strike time) would
// otherwise drag both protocols down identically and hide whether the
// protocol protects the nodes that are playing by the rules.

// advCompare runs the same adversary model against both protocols (see
// versus). The strike fires at the one-third mark; summaries use the
// churn phase windows so adversary and churn runs read the same way.
func advCompare(name string, sc Scale, seed int64, model bullet.AdversaryModel) (*Result, error) {
	t1, t2 := dynPhases(sc)
	r := newResult(name)
	return versus(r, sc, seed,
		arm{adv: bullet.Adversary{Model: model}, before: func(v *armRun) {
			v.w.Scenario(scenario.New().At(t1, scenario.AdversaryAt()))
		}},
		func(v *armRun) {
			// Colluders are read after the run: cutvertex victims are only
			// recorded at strike time, from the live tree.
			live, colluders := v.d.Nodes(), v.d.Colluders()
			honest := metrics.Excluding(live, colluders)
			pre := v.col.MeanOverNodes(honest, t1-20*sim.Second, t1, metrics.Useful)
			during := v.col.MeanOverNodes(honest, t1+5*sim.Second, t2, metrics.Useful)
			post := v.col.MeanOverNodes(honest, t2+10*sim.Second, sc.RunUntil, metrics.Useful)
			r.Summary[v.label+"_honest_before_kbps"] = pre
			r.Summary[v.label+"_honest_during_kbps"] = during
			r.Summary[v.label+"_honest_after_kbps"] = post
			if pre > 0 {
				r.Summary[v.label+"_honest_floor_ratio"] = post / pre
			}
			// The source never *receives*, so it would pin the min at zero.
			honestRecv := metrics.Excluding(honest, []int{v.tree.Root})
			r.Summary[v.label+"_honest_min_kbps"] = v.col.MinOverNodes(honestRecv, t2+10*sim.Second, sc.RunUntil, metrics.Useful)
			r.Summary[v.label+"_colluders"] = float64(len(colluders))
			r.Summary[v.label+"_live_nodes"] = float64(len(live))
		})
}

// AdvFreeride: a quarter of the non-root overlay receives but never
// relays tree data nor serves mesh requests. Bullet's honest nodes
// route recovery around the leeches; streamer descendants of a
// free-riding interior node starve for the rest of the run.
func AdvFreeride(sc Scale, seed int64) (*Result, error) {
	return advCompare("Adversary: free-riders leech without serving", sc, seed,
		bullet.AdvFreeride)
}

// AdvLiar: compromised nodes advertise forged summary tickets whose
// sequence range is disjoint from the real stream, so min-resemblance
// sender selection ranks them as the most useful peers — then they
// refuse to serve. Bullet's eviction and re-peering must shed them;
// the streamer has no mesh, so the model is an honest no-op there and
// the streamer columns double as the clean-run baseline.
func AdvLiar(sc Scale, seed int64) (*Result, error) {
	return advCompare("Adversary: forged-ticket sender-selection poisoning", sc, seed,
		bullet.AdvLiar)
}

// AdvCutvertex: the attacker spends a seeded crash budget on the live
// tree's heaviest cut vertices — the nodes whose failure orphans the
// most descendants — all at one instant. Victims are chosen from the
// live overlay at strike time and recorded as colluders so the honest
// summaries exclude them.
func AdvCutvertex(sc Scale, seed int64) (*Result, error) {
	return advCompare("Adversary: targeted cut-vertex crash", sc, seed,
		bullet.AdvCutvertex)
}

// AdvJoinstorm: compromised nodes leave at the strike and rejoin
// after short seeded dwells — a coordinated flash crowd exercising
// repair and join churn at once.
func AdvJoinstorm(sc Scale, seed int64) (*Result, error) {
	return advCompare("Adversary: coordinated leave/rejoin flash crowd", sc, seed,
		bullet.AdvJoinstorm)
}

// AdvBallotstuff: compromised nodes rewrite their RanSub collect
// ballots to advertise only colluders (with forged tickets and
// inflated descendant counts), biasing random subsets toward the
// colluding set. The streamer has no RanSub, so the model is an
// honest no-op there.
func AdvBallotstuff(sc Scale, seed int64) (*Result, error) {
	return advCompare("Adversary: RanSub ballot stuffing", sc, seed,
		bullet.AdvBallotstuff)
}
