// Package ransub implements RanSub (§2.2, Kostić et al., USITS 2003):
// periodic distribution of changing, uniformly random subsets of global
// state to every node of an overlay tree, using collect messages that
// propagate summaries up the tree and distribute messages that carry
// compacted random subsets back down. Bullet uses the
// RanSub-nondescendants variant: each node receives a random subset
// drawn from all participants except its own descendants, together with
// each member's summary ticket.
package ransub

import (
	"cmp"
	"math/rand"
	"slices"

	"bullet/internal/sim"
	"bullet/internal/sketch"
	"bullet/internal/transport"
)

// Entry is one member of a collect or distribute set: a participant and
// the summary ticket of its working set.
type Entry struct {
	Node   int
	Ticket *sketch.Ticket
}

// EntryWireSize is the per-entry wire size: a 120-byte summary ticket
// plus the node address.
const EntryWireSize = 128

// Group is an input to Compact: a uniform random sample (Entries) of a
// sub-population of the given total size.
type Group struct {
	Entries    []Entry
	Population int
}

// sampled reports whether Compact draws from g: a group with no
// entries or no population contributes no candidate.
func (g Group) sampled() bool { return len(g.Entries) > 0 && g.Population > 0 }

// candidates returns the number of keys Compact draws for groups.
func candidates(groups []Group) int {
	n := 0
	for _, g := range groups {
		if g.sampled() {
			n += len(g.Entries)
		}
	}
	return n
}

// Compact merges multiple fixed-size uniform samples into one
// fixed-size sample that is uniformly representative of the combined
// population (§2.2). Sampling is without replacement, weighting each
// entry by population/|sample| of its group (Efraimidis-Spirakis
// weighted reservoir keys).
func Compact(rng *rand.Rand, size int, groups []Group) []Entry {
	return new(compactor).compact(rng, size, groups)
}

// keyed is one candidate entry with its reservoir key.
type keyed struct {
	e   Entry
	key float64
}

// compactor is Compact's body with its candidate scratch kept across
// calls, so an agent compacting every epoch allocates only the output.
type compactor struct {
	all []keyed
}

// compact is Compact over c's scratch. The scratch is cleared before
// returning, so no ticket pointer outlives the call. A nil rng draws
// no keys; it is for calls with at most one candidate, whose output
// the keys cannot change.
func (c *compactor) compact(rng *rand.Rand, size int, groups []Group) []Entry {
	all := c.all[:0]
	for _, g := range groups {
		if !g.sampled() {
			continue
		}
		w := float64(g.Population) / float64(len(g.Entries))
		for _, e := range g.Entries {
			k := keyed{e: e}
			if rng != nil {
				k.key = rng.ExpFloat64() / w
			}
			all = append(all, k)
		}
	}
	slices.SortFunc(all, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	out := make([]Entry, min(len(all), size))
	for i := range out {
		out[i] = all[i].e
	}
	clear(all)
	c.all = all[:0]
	return out
}

// collectMsg travels child -> parent.
type collectMsg struct {
	epoch       int
	set         []Entry
	descendants int // subtree size below the sender, excluding sender
}

// distributeMsg travels parent -> child.
type distributeMsg struct {
	epoch      int
	set        []Entry
	population int // population the set represents
}

// The paper's RanSub operating point: sets of setSize summary tickets
// (fitting one IP packet), epochs of at least minEpoch, and a root
// that, with failure detection on, waits epochTimeout past an epoch's
// minimum length for missing collects before declaring those children
// failed and starting the next distribute phase anyway.
const (
	setSize      = 10
	minEpoch     = 5 * sim.Second
	epochTimeout = 5 * sim.Second
)

// Config tunes RanSub.
type Config struct {
	// FailureDetection enables the epoch-timeout recovery of §4.6.
	FailureDetection bool
}

// DefaultConfig mirrors the paper's defaults.
func DefaultConfig() Config {
	return Config{FailureDetection: true}
}

// Agent is the per-node RanSub protocol instance. Protocols above
// (Bullet) provide the node's current summary ticket via TicketFn and
// receive each epoch's random subset via OnDistribute.
type Agent struct {
	ep  *transport.Endpoint
	cfg Config
	// rng draws the compaction keys. An agent built without children
	// (a leaf) starts without it: until it first compacts two or more
	// candidates, each of its compactions outputs its one candidate or
	// none whatever the keys, and owed counts the draws those would
	// have made. compactGroups then builds rng, replays the owed draws
	// and draws for every candidate from then on, so the stream is the
	// one an agent holding rng from the start would have used.
	rng      *rand.Rand
	owed     int
	parent   int // -1 at the root
	children []int

	// TicketFn supplies the node's current summary ticket. May be nil.
	TicketFn func() *sketch.Ticket
	// OnDistribute is invoked when an epoch's distribute set arrives.
	OnDistribute func(epoch int, set []Entry)
	// StuffFn, when non-nil, may rewrite the collect ballot (set and
	// descendant count) just before it is sent to the parent — the
	// hook the adversary layer's ballot-stuffing model uses. It must
	// be deterministic; returning its inputs unchanged is a no-op.
	StuffFn func(set []Entry, descendants int) ([]Entry, int)

	epoch int
	// childCollect holds the latest collect from each child, keyed
	// in-place by child id (children lists are tree-degree-sized, so a
	// linear scan beats hashing and keeps iteration deterministic).
	childCollect []childCollect
	// waiting lists the children owing a collect this epoch.
	waiting      []int
	epochTimer   sim.Timer
	minEpochDone bool
	started      bool

	epochsCompleted int

	// Per-send scratch: the compaction candidates, the groups handed to
	// them, and the storage behind the own-entry group. None of it is
	// retained by a sent set.
	compactor compactor
	groups    []Group
	own       [1]Entry
}

// childCollect pairs a child id with its most recent collect message.
type childCollect struct {
	child int
	msg   collectMsg
}

// NewAgent creates the RanSub instance for ep's node, with the given
// tree position. parent is -1 for the root.
func NewAgent(ep *transport.Endpoint, cfg Config, parent int, children []int) *Agent {
	a := &Agent{
		ep:       ep,
		cfg:      cfg,
		parent:   parent,
		children: append([]int(nil), children...),
	}
	if len(children) > 0 {
		a.rng = newRNG(ep)
	}
	return a
}

// newRNG returns the key stream of ep's agent, a pure function of the
// world seed and the node whenever it is built.
func newRNG(ep *transport.Endpoint) *rand.Rand {
	return ep.Scheduler().RNG(int64(ep.Node())*2654435761 + 0x52616e53)
}

// collectOf returns the cached collect state for child, or nil.
func (a *Agent) collectOf(child int) *collectMsg {
	if i := a.collectIndex(child); i >= 0 {
		return &a.childCollect[i].msg
	}
	return nil
}

// collectIndex returns the position of child's cached collect, or -1.
func (a *Agent) collectIndex(child int) int {
	return slices.IndexFunc(a.childCollect, func(cc childCollect) bool { return cc.child == child })
}

// setCollect caches m as child's latest collect.
func (a *Agent) setCollect(child int, m collectMsg) {
	if cm := a.collectOf(child); cm != nil {
		*cm = m
		return
	}
	a.childCollect = append(a.childCollect, childCollect{child: child, msg: m})
}

// dropCollect forgets child's cached collect state.
func (a *Agent) dropCollect(child int) {
	if i := a.collectIndex(child); i >= 0 {
		a.childCollect = slices.Delete(a.childCollect, i, i+1)
	}
}

// stopWaiting removes child from the waiting list and reports whether
// it still owed a collect this epoch.
func (a *Agent) stopWaiting(child int) bool {
	i := slices.Index(a.waiting, child)
	if i >= 0 {
		a.waiting = slices.Delete(a.waiting, i, i+1)
	}
	return i >= 0
}

// resetWaiting makes every current child owe a collect.
func (a *Agent) resetWaiting() {
	a.waiting = append(a.waiting[:0], a.children...)
}

// IsRoot reports whether this agent sits at the tree root.
func (a *Agent) IsRoot() bool { return a.parent < 0 }

// ChildSubtreeSize returns descendants(child) + 1, the population the
// child's collect set represents.
func (a *Agent) ChildSubtreeSize(child int) int {
	cm := a.collectOf(child)
	if cm == nil {
		return 1 // assume at least the child itself
	}
	return cm.descendants + 1
}

// ---------------------------------------------------------------------
// Membership changes (churn support). All three operations are
// deterministic: they mutate only this agent's tree-neighbor state and
// never consult randomness, so scheduled membership events preserve
// the pure-function-of-(config, seed, schedule) contract.
// ---------------------------------------------------------------------

// SetParent re-homes this agent under a new tree parent (-1 makes it a
// root). Used when orphan re-parenting moves the node one level up.
func (a *Agent) SetParent(parent int) { a.parent = parent }

// AddChild registers a new tree child. The child participates in the
// collect/distribute wave from the next epoch onward; the current
// epoch's accounting is untouched.
func (a *Agent) AddChild(child int) {
	if !slices.Contains(a.children, child) {
		a.children = append(a.children, child)
	}
}

// RemoveChild forgets a (typically crashed) tree child so waves skip
// it: its cached collect state is dropped and, if the current epoch
// was still waiting on its collect, the wave advances immediately
// instead of stalling until the root's failure-detection timeout.
func (a *Agent) RemoveChild(child int) {
	i := slices.Index(a.children, child)
	if i < 0 {
		return
	}
	a.children = slices.Delete(a.children, i, i+1)
	a.dropCollect(child)
	if !a.stopWaiting(child) || len(a.waiting) > 0 {
		return
	}
	// The removed child was the last one holding the wave back. (A
	// non-root agent only populates collectsWaited after processing a
	// distribute, so sending the collect here is always in-epoch —
	// the same drain path as onCollect.)
	if a.IsRoot() {
		a.maybeAdvance()
	} else {
		a.sendCollect()
	}
}

// Start begins epoch generation. Call on the root only; non-root agents
// are driven entirely by messages.
func (a *Agent) Start() {
	if !a.IsRoot() || a.started {
		return
	}
	a.started = true
	a.beginEpoch()
}

// Stop halts epoch generation at the root: pending epoch/timeout timers
// become no-ops instead of re-arming forever, so a stopped deployment
// charges nothing to the rest of the run. Non-root agents are
// message-driven and need no stop.
func (a *Agent) Stop() {
	a.started = false
	a.epochTimer.Cancel()
}

func (a *Agent) ownEntry() Entry {
	var t *sketch.Ticket
	if a.TicketFn != nil {
		t = a.TicketFn().Clone()
	}
	return Entry{Node: a.ep.Node(), Ticket: t}
}

// beginEpoch (root only) starts the next distribute phase.
func (a *Agent) beginEpoch() {
	a.epoch++
	a.epochsCompleted++
	a.minEpochDone = false
	a.resetWaiting()
	a.sendDistributes(distributeMsg{epoch: a.epoch})
	eng := a.ep.Scheduler()
	eng.ScheduleAfter(minEpoch, func() {
		a.minEpochDone = true
		a.maybeAdvance()
	})
	a.epochTimer.Cancel()
	if a.cfg.FailureDetection {
		a.epochTimer = eng.After(minEpoch+epochTimeout, func() {
			// Failure detection: stop waiting for missing collects.
			if len(a.waiting) > 0 {
				a.waiting = a.waiting[:0]
				a.maybeAdvance()
			}
		})
	}
}

// maybeAdvance (root only) starts the next epoch once all collects are
// in and the minimum epoch length has elapsed.
func (a *Agent) maybeAdvance() {
	if !a.IsRoot() || !a.started {
		return
	}
	if a.minEpochDone && len(a.waiting) == 0 {
		a.beginEpoch()
	}
}

// compactGroups compacts the group scratch into a fresh set and drops
// the scratch's references to the groups' entries.
func (a *Agent) compactGroups() []Entry {
	if a.rng == nil {
		if n := candidates(a.groups); n > 1 {
			a.rng = newRNG(a.ep)
			for range a.owed {
				a.rng.ExpFloat64()
			}
			a.owed = 0
		} else {
			a.owed += n
		}
	}
	set := a.compactor.compact(a.rng, setSize, a.groups)
	clear(a.groups)
	a.groups = a.groups[:0]
	return set
}

// sendDistributes builds and sends the RanSub-nondescendants distribute
// set for each child: the compaction of the node's own distribute set,
// its own entry, and the collect sets of the child's siblings. The own
// entry is snapshotted once per round, so every child's set shares one
// ticket; receivers only read set tickets.
func (a *Agent) sendDistributes(incoming distributeMsg) {
	if len(a.children) == 0 {
		return
	}
	a.own[0] = a.ownEntry()
	for _, child := range a.children {
		a.groups = append(a.groups, Group{Entries: a.own[:], Population: 1})
		if len(incoming.set) > 0 {
			a.groups = append(a.groups, Group{Entries: incoming.set, Population: incoming.population})
		}
		pop := 1 + incoming.population
		for _, sib := range a.children {
			if sib == child {
				continue
			}
			if cm := a.collectOf(sib); cm != nil && len(cm.set) > 0 {
				a.groups = append(a.groups, Group{Entries: cm.set, Population: cm.descendants + 1})
				pop += cm.descendants + 1
			}
		}
		set := a.compactGroups()
		msg := &distributeMsg{epoch: a.epoch, set: set, population: pop}
		a.ep.SendControl(child, msg, 16+len(set)*EntryWireSize)
	}
}

// sendCollect sends this node's collect set (own entry compacted with
// all children's collect sets) to its parent.
func (a *Agent) sendCollect() {
	a.own[0] = a.ownEntry()
	a.groups = append(a.groups, Group{Entries: a.own[:], Population: 1})
	desc := 0
	for _, c := range a.children {
		if cm := a.collectOf(c); cm != nil && cm.epoch == a.epoch {
			a.groups = append(a.groups, Group{Entries: cm.set, Population: cm.descendants + 1})
			desc += cm.descendants + 1
		}
	}
	set := a.compactGroups()
	if a.StuffFn != nil {
		set, desc = a.StuffFn(set, desc)
	}
	msg := &collectMsg{epoch: a.epoch, set: set, descendants: desc}
	a.ep.SendControl(a.parent, msg, 24+len(set)*EntryWireSize)
}

// HandleControl processes a control payload if it is a RanSub message,
// returning true when consumed. Protocols sharing the endpoint call
// this first from their control handler.
func (a *Agent) HandleControl(from int, payload any) bool {
	switch m := payload.(type) {
	case *distributeMsg:
		a.onDistribute(m)
		return true
	case *collectMsg:
		a.onCollect(from, m)
		return true
	}
	return false
}

func (a *Agent) onDistribute(m *distributeMsg) {
	// Epochs only move forward; drop stale or duplicate distributes.
	if a.epochsCompleted > 0 && m.epoch <= a.epoch {
		return
	}
	a.epoch = m.epoch
	a.epochsCompleted++
	if a.OnDistribute != nil && len(m.set) > 0 {
		a.OnDistribute(m.epoch, m.set)
	}
	if len(a.children) == 0 {
		// Leaf: the distribute phase has reached the bottom; start the
		// collect phase for this epoch.
		a.sendCollect()
		return
	}
	// Expect fresh collects from every child this epoch.
	a.resetWaiting()
	a.sendDistributes(*m)
}

func (a *Agent) onCollect(from int, m *collectMsg) {
	a.setCollect(from, *m)
	if m.epoch != a.epoch {
		return // stale collect: keep the state, don't advance the phase
	}
	// Only a collect we were actually waiting on can advance the phase:
	// a freshly adopted child (orphan re-parented mid-epoch) may deliver
	// a same-epoch collect after we already sent ours, which must not
	// emit a duplicate.
	if !a.stopWaiting(from) {
		return
	}
	if len(a.waiting) == 0 {
		if a.IsRoot() {
			a.maybeAdvance()
		} else {
			a.sendCollect()
		}
	}
}
