package streamer

// Adversary wiring for the plain-streamer baseline. The streamer has
// no mesh or recovery control plane, so only the models with a tree
// surface bite: Freeride stops forwarding to children, Cutvertex and
// Joinstorm drive targeted crash timing and oscillation through the
// membership API. Liar and Ballotstuff poison machinery the streamer
// does not have and are honest no-ops here — that asymmetry is the
// point of the adv-* comparisons.

// Strike activates the fleet. The streamer never repairs, so the
// crash-timing models leave permanently starved subtrees behind.
func (sys *System) Strike() {
	sys.StrikeCrashes(sys.Net.Engine(), sys.Crash, sys.Restart)
}
