package scenario

import (
	"testing"

	"bullet/internal/sim"
	"bullet/internal/topology"
)

func testEnv(t *testing.T) (*Env, int) {
	t.Helper()
	b := topology.NewBuilder()
	a := b.AddNode(topology.Stub, 0, 0)
	c := b.AddNode(topology.Stub, 1, 0)
	lid := b.AddLink(a, c, topology.StubStub, 1000, sim.Millisecond, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Env{Eng: sim.NewEngine(1), G: g}, lid
}

func TestScheduleFiresInTimeOrder(t *testing.T) {
	env, lid := testEnv(t)
	var order []string
	s := New().
		At(20*sim.Second, Func(func(*Env) { order = append(order, "b") })).
		At(10*sim.Second, FailLink(lid), Func(func(*Env) { order = append(order, "a") })).
		At(20*sim.Second, Func(func(*Env) { order = append(order, "c") })).
		At(30*sim.Second, RestoreLink(lid), Func(func(*Env) { order = append(order, "d") }))
	if len(s.events) != 4 {
		t.Fatalf("Len = %d, want 4", len(s.events))
	}
	s.Install(env)

	env.Eng.Run(15 * sim.Second)
	if !env.G.Links[lid].Down {
		t.Fatal("link not down after the 10s event")
	}
	env.Eng.Run(40 * sim.Second)
	if env.G.Links[lid].Down {
		t.Fatal("link still down after the 30s event")
	}
	// Same-instant events (b, c) fire in insertion order.
	want := "abcd"
	got := ""
	for _, o := range order {
		got += o
	}
	if got != want {
		t.Errorf("event order %q, want %q", got, want)
	}
}

func TestRampBandwidth(t *testing.T) {
	env, lid := testEnv(t)
	var samples []float64
	s := New().Ramp(10*sim.Second, 10*sim.Second, 4, func(frac float64) Action {
		return SetBandwidth(lid, 4000-2000*frac)
	})
	// Sample the capacity just after each ramp step.
	for i := 0; i <= 4; i++ {
		at := 10*sim.Second + sim.Duration(i)*2500*sim.Millisecond + sim.Millisecond
		s.At(at, Func(func(env *Env) { samples = append(samples, env.G.Links[lid].Kbps()) }))
	}
	s.Install(env)
	env.Eng.Run(25 * sim.Second)

	want := []float64{4000, 3500, 3000, 2500, 2000}
	if len(samples) != len(want) {
		t.Fatalf("got %d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		if samples[i] != w {
			t.Errorf("step %d: %g Kbps, want %g", i, samples[i], w)
		}
	}
}

func TestOscillate(t *testing.T) {
	env, lid := testEnv(t)
	var states []bool
	s := New().Oscillate(10*sim.Second, 10*sim.Second, 3, FailLink(lid), RestoreLink(lid))
	for i := 0; i < 6; i++ {
		at := 10*sim.Second + sim.Duration(i)*5*sim.Second + sim.Second
		s.At(at, Func(func(env *Env) { states = append(states, env.G.Links[lid].Down) }))
	}
	s.Install(env)
	env.Eng.Run(60 * sim.Second)

	want := []bool{true, false, true, false, true, false}
	if len(states) != len(want) {
		t.Fatalf("got %d states, want %d", len(states), len(want))
	}
	for i, w := range want {
		if states[i] != w {
			t.Errorf("half-period %d: down=%v, want %v", i, states[i], w)
		}
	}
}

func TestEmptyScheduleInstallsNothing(t *testing.T) {
	env, _ := testEnv(t)
	New().Install(env)
	if p := env.Eng.Pending(); p != 0 {
		t.Fatalf("empty schedule queued %d events", p)
	}
}

// Installing the same schedule into two independent worlds applies
// identical mutations to each: the intended pattern for comparing
// protocols under the same dynamics.
func TestInstallIntoTwoWorlds(t *testing.T) {
	env1, lid := testEnv(t)
	env2, _ := testEnv(t)
	s := New().At(5*sim.Second, FailLink(lid), SetBandwidth(lid, 500))
	s.Install(env1)
	s.Install(env2)
	env1.Eng.Run(10 * sim.Second)
	env2.Eng.Run(10 * sim.Second)
	for i, env := range []*Env{env1, env2} {
		l := &env.G.Links[lid]
		if !l.Down || l.Kbps() != 500 {
			t.Errorf("world %d: down=%v kbps=%g, want true/500", i+1, l.Down, l.Kbps())
		}
	}
}

// fakeMembership records churn operations for assertion.
type fakeMembership struct {
	crashes, restarts, joins []int
}

func (f *fakeMembership) Crash(n int) error   { f.crashes = append(f.crashes, n); return nil }
func (f *fakeMembership) Restart(n int) error { f.restarts = append(f.restarts, n); return nil }
func (f *fakeMembership) Join(n int) error    { f.joins = append(f.joins, n); return nil }

func TestMembershipActions(t *testing.T) {
	env, _ := testEnv(t)
	m := &fakeMembership{}
	env.M = m
	New().
		At(10*sim.Second, CrashNode(7)).
		At(20*sim.Second, ChurnNodes(1, 2, 3)).
		At(30*sim.Second, RestartNode(7)).
		At(40*sim.Second, JoinNode(9)).
		Install(env)
	env.Eng.Run(60 * sim.Second)
	if len(m.crashes) != 4 || m.crashes[0] != 7 || m.crashes[1] != 1 || m.crashes[3] != 3 {
		t.Fatalf("crashes %v, want [7 1 2 3]", m.crashes)
	}
	if len(m.restarts) != 1 || m.restarts[0] != 7 {
		t.Fatalf("restarts %v, want [7]", m.restarts)
	}
	if len(m.joins) != 1 || m.joins[0] != 9 {
		t.Fatalf("joins %v, want [9]", m.joins)
	}
}

// Without a Membership in the Env, membership actions are no-ops: the
// schedule installs and runs without panicking.
func TestMembershipActionsNilM(t *testing.T) {
	env, lid := testEnv(t)
	New().
		At(5*sim.Second, CrashNode(7), FailLink(lid)).
		At(10*sim.Second, RestartNode(7), JoinNode(8), ChurnNodes(1, 2)).
		Install(env)
	env.Eng.Run(20 * sim.Second)
	if !env.G.Links[lid].Down {
		t.Fatal("link action did not fire alongside nil-M membership actions")
	}
}

func TestChurnBuilder(t *testing.T) {
	env, _ := testEnv(t)
	m := &fakeMembership{}
	env.M = m
	var times []sim.Time
	s := New()
	s.Churn(10*sim.Second, 5*sim.Second, 7*sim.Second, 1, 2, 3)
	if len(s.events) != 6 {
		t.Fatalf("churn of 3 nodes scheduled %d events, want 6", len(s.events))
	}
	s.At(60*sim.Second, Func(func(env *Env) { times = append(times, env.Eng.Now()) }))
	s.Install(env)
	env.Eng.Run(70 * sim.Second)
	if len(m.crashes) != 3 || len(m.restarts) != 3 {
		t.Fatalf("crashes %v restarts %v, want 3 each", m.crashes, m.restarts)
	}
	// Order: node i crashes at 10+5i and restarts 7s later.
	want := []int{1, 2, 3}
	for i, n := range want {
		if m.crashes[i] != n || m.restarts[i] != n {
			t.Fatalf("churn order: crashes %v restarts %v", m.crashes, m.restarts)
		}
	}
	// downFor <= 0: no restarts scheduled.
	s2 := New().Churn(0, sim.Second, 0, 4, 5)
	if len(s2.events) != 2 {
		t.Fatalf("no-restart churn scheduled %d events, want 2", len(s2.events))
	}
}

// fakeAdversary records adversary operations for assertion.
type fakeAdversary struct {
	compromised []int
	strikes     int
	log         *[]string
}

func (f *fakeAdversary) Compromise(nodes []int) {
	f.compromised = append(f.compromised, nodes...)
	if f.log != nil {
		*f.log = append(*f.log, "compromise")
	}
}

func (f *fakeAdversary) Strike() {
	f.strikes++
	if f.log != nil {
		*f.log = append(*f.log, "strike")
	}
}

func TestAdversaryActions(t *testing.T) {
	env, _ := testEnv(t)
	a := &fakeAdversary{}
	env.A = a
	nodes := []int{4, 5}
	New().
		At(10*sim.Second, CompromiseNodes(nodes...)).
		At(20*sim.Second, AdversaryAt()).
		At(40*sim.Second, AdversaryAt()).
		Install(env)
	nodes[0] = 99 // CompromiseNodes must have copied its argument
	env.Eng.Run(50 * sim.Second)
	if want := []int{4, 5}; len(a.compromised) != 2 || a.compromised[0] != want[0] || a.compromised[1] != want[1] {
		t.Fatalf("compromised %v, want %v", a.compromised, want)
	}
	if a.strikes != 2 {
		t.Fatalf("strikes = %d, want 2", a.strikes)
	}
}

func TestAdversaryActionsNilA(t *testing.T) {
	env, _ := testEnv(t)
	New().
		At(10*sim.Second, CompromiseNodes(1), AdversaryAt()).
		Install(env)
	env.Eng.Run(20 * sim.Second) // must not panic with A == nil
}

// TestSameInstantActionsFireInInsertionOrder pins the tie-break that
// makes mixed schedules deterministic: when adversary, churn, and
// link actions share one timestamp, they fire in the order they were
// added to the schedule — across events and within one event's action
// batch — regardless of action family.
func TestSameInstantActionsFireInInsertionOrder(t *testing.T) {
	env, lid := testEnv(t)
	var log []string
	m := &fakeMembership{}
	a := &fakeAdversary{log: &log}
	env.M, env.A = m, a
	mark := func(s string) Action {
		return Func(func(*Env) { log = append(log, s) })
	}
	const at = 25 * sim.Second
	New().
		At(at, CompromiseNodes(3)).
		At(at, CrashNode(3), mark("crash")).
		At(at, AdversaryAt()).
		At(at, FailLink(lid), mark("fail-link")).
		At(at, AdversaryAt()).
		Install(env)
	env.Eng.Run(30 * sim.Second)
	want := []string{"compromise", "crash", "strike", "fail-link", "strike"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
	if len(m.crashes) != 1 || m.crashes[0] != 3 {
		t.Fatalf("crashes %v, want [3]", m.crashes)
	}
}
