package streamer

// Adversary wiring for the plain-streamer baseline. The streamer has
// no mesh or recovery control plane, so only the models with a tree
// surface bite: Freeride stops forwarding to children, Cutvertex and
// Joinstorm drive targeted crash timing and oscillation through the
// membership API. Liar and Ballotstuff poison machinery the streamer
// does not have and are honest no-ops here — that asymmetry is the
// point of the adv-* comparisons.

import "bullet/internal/adversary"

// Strike activates the fleet. See core's Strike for the model
// semantics; the streamer never repairs, so the crash-timing models
// leave permanently starved subtrees behind.
func (sys *System) Strike() {
	sys.Roster.Strike()
	f := sys.Adversary()
	if f == nil {
		return
	}
	switch f.Model() {
	case adversary.Cutvertex:
		victims := adversary.CutSet(sys.Tree, sys.Live, f.Budget())
		f.Compromise(victims)
		for _, v := range victims {
			_ = sys.Crash(v)
		}
	case adversary.Joinstorm:
		for _, id := range f.Colluders() {
			if !sys.Live(id) {
				continue
			}
			if err := sys.Crash(id); err != nil {
				continue
			}
			node := id
			sys.net.Engine().ScheduleAfter(f.Dwell(id), func() { _ = sys.Restart(node) })
		}
	}
}
