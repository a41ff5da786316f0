// Package adversary implements bounded, deterministic hostile-peer
// models. A Fleet compromises a seeded subset of participants and
// drives every hostile decision from a dedicated counter-hash RNG
// stream (the same discipline as netem's per-link-direction draws), so
// a run with an adversary is a pure function of (config, seed,
// schedule) and sharded runs stay byte-identical to serial.
//
// The fleet is dormant until Strike() fires (normally from a
// scenario.AdversaryAt action): before the strike the compromised
// nodes behave exactly like honest ones and the hooks draw no
// randomness, so the pre-strike phase of an adversarial run is
// byte-identical to a clean run with the same seed.
//
// Concurrency contract: Compromise, Strike, and every Stream draw run
// on the global engine between shard windows (scenario actions), never
// inside a shard window. Per-node hooks that execute on shard
// goroutines (serving guards, ticket lookups) only read state written
// before the window barrier.
package adversary

import (
	"fmt"
	"sort"

	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/sim"
)

// Model selects a hostile-peer behavior.
type Model int

const (
	// None disables the adversary layer entirely.
	None Model = iota
	// Freeride receives data but never relays to tree children nor
	// serves mesh/recovery requests.
	Freeride
	// Liar advertises summary tickets (and thus implied Bloom
	// filters) for blocks it does not hold, poisoning min-resemblance
	// sender selection, while refusing to serve the peers it attracts.
	Liar
	// Cutvertex computes high-mass cut vertices of the live overlay
	// tree at strike time and crashes them to maximize orphaned
	// subtree mass.
	Cutvertex
	// Joinstorm drives seeded flash crowds of leave/rejoin
	// oscillation through the membership API.
	Joinstorm
	// Ballotstuff manipulates RanSub collect ballots so random
	// subsets are biased toward colluders, which then refuse to serve.
	Ballotstuff
)

var modelNames = map[Model]string{
	None:        "none",
	Freeride:    "freeride",
	Liar:        "liar",
	Cutvertex:   "cutvertex",
	Joinstorm:   "joinstorm",
	Ballotstuff: "ballotstuff",
}

func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Known reports whether m is one of the models above.
func (m Model) Known() bool {
	_, ok := modelNames[m]
	return ok
}

// Config describes an adversary fleet. The zero value (Model None)
// means "no adversary".
type Config struct {
	// Model is the hostile behavior.
	Model Model
}

// fraction is the share of the non-root participants a fleet
// compromises. For Cutvertex it is a crash budget: the victim
// identities come from the live tree at strike time, not from the
// seeded selection.
const fraction = 0.25

// Stream is a counter-hash RNG stream: draw n is sim.Draw(base, id, n),
// a pure function of (seed, model, id, draw counter) independent of
// event interleaving. It must only be drawn from global-engine context
// (Compromise/Strike/scenario actions), never inside a shard window.
type Stream struct {
	base  uint64
	draws uint64
}

// NewStream derives a stream from a seed and a domain tag.
func NewStream(seed int64, tag uint64) *Stream {
	return &Stream{base: sim.Mix64(uint64(seed) ^ tag)}
}

func (s *Stream) next(id int) uint64 {
	s.draws++
	return sim.Draw(s.base, uint64(id), s.draws)
}

// Intn draws a uniform int in [0, n) for entity id.
func (s *Stream) Intn(id, n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next(id) % uint64(n))
}

// Fleet is a deployed adversary: the compromised set, the activation
// latch, and the seeded stream hostile decisions draw from.
type Fleet struct {
	cfg    Config
	stream *Stream

	root        int
	budget      int
	compromised nodeset.Set
	colluders   []int // ascending
	active      bool
}

// streamTag domain-separates the fleet stream per model ("advr" xor
// model) so two models at the same seed see unrelated draws.
func streamTag(m Model) uint64 { return 0x61647672 ^ (uint64(m) << 32) }

// selScore is the seeded selection score for a participant: nodes
// with the lowest scores are compromised. Pure function of
// (seed, model, id) — no engine RNG is consulted, so deploying an
// adversary perturbs no other component's draws.
func selScore(seed int64, m Model, id int) uint64 {
	return sim.Draw(sim.Mix64(uint64(seed))^streamTag(m), 0, uint64(id))
}

// New builds a fleet over the given participants. The compromised set
// is a pure function of (worldSeed, cfg, participants, root): every
// non-root participant is scored by a seeded hash and the lowest
// ⌈fraction·(N−1)⌉ are compromised. The fleet starts dormant.
func New(cfg Config, participants []int, root int, worldSeed int64) *Fleet {
	f := &Fleet{
		cfg:    cfg,
		stream: NewStream(worldSeed, streamTag(cfg.Model)),
		root:   root,
	}
	if cfg.Model == None {
		return f
	}
	type scored struct {
		id    int
		score uint64
	}
	cands := make([]scored, 0, len(participants))
	for _, p := range participants {
		if p == root {
			continue
		}
		cands = append(cands, scored{p, selScore(worldSeed, cfg.Model, p)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	k := int(fraction*float64(len(cands)) + 0.999999)
	if k > len(cands) {
		k = len(cands)
	}
	f.budget = k
	if cfg.Model == Cutvertex {
		// The seeded selection only fixes the crash budget; the victim
		// identities come from the live tree at strike time and are
		// recorded via Compromise then.
		return f
	}
	for _, c := range cands[:k] {
		f.addColluder(c.id)
	}
	return f
}

func (f *Fleet) addColluder(id int) {
	if id == f.root || !f.compromised.Add(id) {
		return
	}
	i := sort.SearchInts(f.colluders, id)
	f.colluders = append(f.colluders, 0)
	copy(f.colluders[i+1:], f.colluders[i:])
	f.colluders[i] = id
}

// Model reports the fleet's hostile model.
func (f *Fleet) Model() Model { return f.cfg.Model }

// Stream exposes the fleet's seeded stream for hook implementations.
func (f *Fleet) Stream() *Stream { return f.stream }

// Compromise adds nodes to the compromised set (the root is never
// compromised). Used by the CompromiseNodes scenario action and by
// Cutvertex strikes to record their victims.
func (f *Fleet) Compromise(nodes []int) {
	for _, id := range nodes {
		f.addColluder(id)
	}
}

// Activate flips the fleet hostile. Idempotent.
func (f *Fleet) Activate() { f.active = true }

// Active reports whether Strike has fired.
func (f *Fleet) Active() bool { return f.active }

// Colluders returns the compromised ids in ascending order. The
// returned slice is shared; callers must not mutate it.
func (f *Fleet) Colluders() []int { return f.colluders }

// Hostile reports whether id is compromised and the fleet has struck
// — the gate every behavior hook checks on its hot path.
func (f *Fleet) Hostile(id int) bool { return f.active && f.compromised.Contains(id) }

// RefusesServe reports whether id, if hostile, refuses to serve mesh
// and recovery requests. Freeriders, liars, and ballot stuffers all
// leech; crash-timing models don't change serving behavior.
func (f *Fleet) RefusesServe(id int) bool {
	switch f.cfg.Model {
	case Freeride, Liar, Ballotstuff:
		return f.Hostile(id)
	}
	return false
}

// RefusesRelay reports whether id, if hostile, stops relaying data to
// its tree children. Only freeriders do: liars and ballot stuffers
// keep the tree flowing to stay plausible while they poison the
// control plane.
func (f *Fleet) RefusesRelay(id int) bool {
	return f.cfg.Model == Freeride && f.Hostile(id)
}

// CutSet greedily picks up to budget victims from the live tree by
// live-descendant mass: at each step the node (root excluded, already
// orphaned subtrees skipped) whose subtree holds the most live nodes
// is taken, ties broken by lowest id. Deterministic: pure function of
// the tree and the live predicate.
func CutSet(t *overlay.Tree, live func(int) bool, budget int) []int {
	if budget <= 0 {
		return nil
	}
	victims := make([]int, 0, budget)
	var taken nodeset.Set
	// under reports whether id sits inside an already-picked subtree.
	under := func(id int) bool {
		for id != t.Root {
			if taken.Contains(id) {
				return true
			}
			p, ok := t.Parent(id)
			if !ok {
				return false
			}
			id = p
		}
		return false
	}
	var liveMass func(id int) int
	liveMass = func(id int) int {
		m := 0
		if live(id) {
			m = 1
		}
		for _, c := range t.Children(id) {
			m += liveMass(c)
		}
		return m
	}
	for len(victims) < budget {
		best, bestMass := -1, 0
		for _, p := range t.Participants {
			if p == t.Root || !live(p) || taken.Contains(p) || under(p) {
				continue
			}
			if m := liveMass(p); m > bestMass || (m == bestMass && best != -1 && p < best) {
				best, bestMass = p, m
			}
		}
		if best == -1 {
			break
		}
		taken.Add(best)
		victims = append(victims, best)
	}
	return victims
}

// Joinstorm dwell: a crashed colluder rejoins JoinstormMinDwell plus
// a seeded jitter later — long enough for failure detection to fire
// and force a real repair, short enough to keep the overlay
// oscillating.
const (
	JoinstormMinDwell = 3 * sim.Second
	JoinstormJitter   = 4 * sim.Second
)

// Dwell draws colluder id's down time for one joinstorm oscillation
// from the fleet stream. Global-engine context only.
func (f *Fleet) Dwell(id int) sim.Duration {
	return JoinstormMinDwell + sim.Duration(f.stream.Intn(id, int(JoinstormJitter)))
}

// Budget returns the fleet's crash/oscillation budget: the size the
// seeded selection chose.
func (f *Fleet) Budget() int { return f.budget }
