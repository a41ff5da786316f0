package bullet_test

import (
	"slices"
	"strings"
	"testing"

	"bullet"
)

// protocols are the four built-in protocols with a 600 Kbps, 300 s
// stream.
func protocols() []bullet.Protocol {
	s := bullet.StreamConfig{RateKbps: 600, PacketSize: 1500, Duration: 300 * bullet.Second}
	return []bullet.Protocol{
		bullet.AntiEntropyProtocol{Config: s},
		bullet.BulletProtocol{Config: bullet.DefaultConfig(600)},
		bullet.GossipProtocol{Config: s},
		bullet.StreamerProtocol{Config: s},
	}
}

// Every built-in protocol deploys under its name through the one
// generic World.Deploy and returns a working Deployment handle.
func TestAllProtocolsDeployByName(t *testing.T) {
	for _, p := range protocols() {
		name := p.Name()
		t.Run(name, func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(4)
			if err != nil {
				t.Fatal(err)
			}
			d, err := w.Deploy(p, tree)
			if err != nil {
				t.Fatal(err)
			}
			if d.Protocol() != name {
				t.Errorf("Deployment.Protocol() = %q, want %q", d.Protocol(), name)
			}
			if d.Collector() == nil {
				t.Fatal("nil collector")
			}
			if got := len(d.Nodes()); got != 15 {
				t.Errorf("Nodes() = %d ids, want 15", got)
			}
			if !d.Live(tree.Root) {
				t.Error("root not live after deploy")
			}
			if name == "gossip" {
				if d.Tree() != nil {
					t.Error("gossip deployment has a tree")
				}
			} else if d.Tree() != tree {
				t.Error("deployment does not expose the deployed tree")
			}
			if got := d.Workload().Name(); got != "cbr" {
				t.Errorf("default Workload().Name() = %q, want cbr", got)
			}
			if got := d.Collector().CompletionTarget(); got != 0 {
				t.Errorf("CBR armed a completion target of %d", got)
			}
			w.Run(60 * bullet.Second)
			if d.Collector().Total(bullet.Useful) == 0 {
				t.Errorf("%s delivered nothing", name)
			}
			if got := w.Deployments(); len(got) != 1 || got[0] != d {
				t.Errorf("world tracks %d deployments", len(got))
			}
		})
	}
}

// A FileWorkload threads through every protocol config to the shared
// pump and arms completion tracking on the deployment's collector.
func TestWorkloadThreadsThroughEveryProtocol(t *testing.T) {
	wl := bullet.FileWorkload{RateKbps: 400, PacketSize: 1500, K: 200}
	for _, name := range []string{"anti-entropy", "bullet", "gossip", "streamer"} {
		t.Run(name, func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(4)
			if err != nil {
				t.Fatal(err)
			}
			var p bullet.Protocol
			switch name {
			case "bullet":
				cfg := bullet.DefaultConfig(400)
				cfg.Duration = 60 * bullet.Second
				cfg.MaxSenders, cfg.MaxReceivers = 4, 4
				cfg.Workload = wl
				p = bullet.BulletProtocol{Config: cfg}
			case "streamer":
				p = bullet.StreamerProtocol{Config: bullet.StreamConfig{
					Duration: 60 * bullet.Second, Workload: wl}}
			case "gossip":
				p = bullet.GossipProtocol{Config: bullet.StreamConfig{
					Duration: 60 * bullet.Second, Workload: wl}}
			case "anti-entropy":
				p = bullet.AntiEntropyProtocol{Config: bullet.StreamConfig{
					Duration: 60 * bullet.Second, Workload: wl}}
			}
			d, err := w.Deploy(p, tree)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Workload().Name(); got != "file" {
				t.Fatalf("Workload().Name() = %q, want file", got)
			}
			if got := d.Collector().CompletionTarget(); got != wl.Target() {
				t.Fatalf("completion target %d, want %d", got, wl.Target())
			}
			w.Run(90 * bullet.Second)
			if len(d.Collector().CompletionCDF()) == 0 {
				t.Errorf("%s: no node completed the %d-symbol file", name, wl.Target())
			}
		})
	}
}

// Every built-in system honours the Deployment contract itself: its
// name, its live nodes placed on the world's shards, a nil colluder set
// without an adversary and an ascending private copy with one, and
// membership errors prefixed with the deployment's name.
func TestDeploymentContract(t *testing.T) {
	for _, p := range protocols() {
		t.Run(p.Name(), func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 28, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(4)
			if err != nil {
				t.Fatal(err)
			}
			d, err := w.Deploy(p, tree)
			if err != nil {
				t.Fatal(err)
			}
			if d.Protocol() != p.Name() {
				t.Errorf("Protocol() = %q, want %q", d.Protocol(), p.Name())
			}
			if w.Shards() != 2 {
				t.Fatalf("world runs on %d shards, want 2", w.Shards())
			}
			for _, n := range d.Nodes() {
				if s := w.Network().ShardOf(n); s < 0 || s >= w.Shards() {
					t.Errorf("ShardOf(%d) = %d, outside the world's %d shards", n, s, w.Shards())
				}
			}
			if c := d.Colluders(); c != nil {
				t.Errorf("Colluders() = %v without an adversary, want nil", c)
			}
			for _, err := range []error{d.Crash(tree.Root), d.Restart(tree.Root), d.Join(tree.Root)} {
				if err == nil || !strings.HasPrefix(err.Error(), p.Name()+": ") {
					t.Errorf("membership error %v, want the prefix %q", err, p.Name()+": ")
				}
			}

			w2, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 28})
			if err != nil {
				t.Fatal(err)
			}
			tree2, err := w2.RandomTree(4)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := w2.Deploy(p, tree2, bullet.WithAdversary(bullet.Adversary{Model: bullet.AdvFreeride}))
			if err != nil {
				t.Fatal(err)
			}
			c := d2.Colluders()
			if len(c) == 0 || !slices.IsSorted(c) {
				t.Fatalf("Colluders() = %v, want a non-empty ascending set", c)
			}
			want := slices.Clone(c)
			for i := range c {
				c[i] = -1
			}
			if again := d2.Colluders(); !slices.Equal(again, want) {
				t.Errorf("overwriting Colluders()' result changed a second call: %v, want %v", again, want)
			}
		})
	}
}

// Deployments made through World.Deploy are tracked by the world and
// expose their collector.
func TestDeployTracked(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bullet.DefaultConfig(400)
	cfg.Duration = 40 * bullet.Second
	cfg.MaxSenders, cfg.MaxReceivers = 4, 4
	d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
	if err != nil {
		t.Fatal(err)
	}
	col := d.Collector()
	if col == nil {
		t.Fatal("deployment returned nil collector")
	}
	w.Run(60 * bullet.Second)
	if col.Total(bullet.Useful) == 0 {
		t.Fatal("nothing delivered")
	}
	if deps := w.Deployments(); len(deps) != 1 || deps[0].Protocol() != "bullet" {
		t.Fatalf("deployment not tracked: %v", deps)
	}
}

// Crash/Restart/Join on a Bullet deployment: liveness flips, the tree
// re-parents orphans after the failover delay, and the node comes back
// on restart.
func TestDeploymentCrashRestartJoin(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1000, Clients: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bullet.DefaultConfig(400)
	cfg.Start = 5 * bullet.Second
	cfg.Duration = 100 * bullet.Second
	cfg.MaxSenders, cfg.MaxReceivers = 4, 4
	d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
	if err != nil {
		t.Fatal(err)
	}

	// Pick the heaviest root child so the crash actually orphans nodes.
	victim, desc := tree.HeaviestChild(tree.Root)
	if victim < 0 || desc < 1 {
		t.Fatalf("degenerate tree: victim=%d desc=%d", victim, desc)
	}

	// Error cases up front.
	if err := d.Crash(tree.Root); err == nil {
		t.Error("crashing the source was allowed")
	}
	if err := d.Restart(victim); err == nil {
		t.Error("restarting a live node was allowed")
	}
	if err := d.Join(victim); err == nil {
		t.Error("joining an existing participant was allowed")
	}

	epoch0 := d.MemberEpoch()
	w.At(30*bullet.Second, func() {
		if err := d.Crash(victim); err != nil {
			t.Errorf("crash: %v", err)
		}
		if err := d.Crash(victim); err == nil {
			t.Error("double crash was allowed")
		}
	})
	w.Run(40 * bullet.Second) // past crash + failover delay
	if d.Live(victim) {
		t.Error("victim still live after crash")
	}
	if d.MemberEpoch() <= epoch0 {
		t.Error("member epoch did not advance on crash")
	}
	if tree.Contains(victim) {
		t.Error("victim still in the tree after the failover delay")
	}
	if got := len(d.Nodes()); got != 19 {
		t.Errorf("%d live nodes after crash, want 19", got)
	}
	// Orphans were re-parented, not dropped: the tree still spans all
	// 19 survivors from the root.
	if got := tree.SubtreeSize(tree.Root); got != 19 {
		t.Errorf("tree spans %d nodes after repair, want 19", got)
	}

	w.At(60*bullet.Second, func() {
		if err := d.Restart(victim); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	w.Run(110 * bullet.Second)
	if !d.Live(victim) {
		t.Error("victim not live after restart")
	}
	if !tree.Contains(victim) {
		t.Error("victim not re-attached after restart")
	}
	if got := len(d.Nodes()); got != 20 {
		t.Errorf("%d live nodes after restart, want 20", got)
	}
	// The restarted node received data again after rejoining.
	if pts := d.Collector().NodeSeries(victim, bullet.Useful); len(pts) > 0 {
		var post float64
		for _, pt := range pts {
			if pt.T >= 70 {
				post += pt.Kbps
			}
		}
		if post == 0 {
			t.Error("restarted node received nothing after rejoin")
		}
	}
}

// Scenario membership actions drive the world's deployments, composing
// with link dynamics in one schedule.
func TestScenarioChurnActions(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1000, Clients: 20, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bullet.DefaultConfig(400)
	cfg.Start = 5 * bullet.Second
	cfg.Duration = 80 * bullet.Second
	cfg.MaxSenders, cfg.MaxReceivers = 4, 4
	d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
	if err != nil {
		t.Fatal(err)
	}
	victim, _ := tree.HeaviestChild(tree.Root)
	w.Scenario(bullet.NewScenario().
		At(20*bullet.Second, bullet.CrashNode(victim)).
		At(50*bullet.Second, bullet.RestartNode(victim)))
	w.Run(30 * bullet.Second)
	if d.Live(victim) {
		t.Error("scenario CrashNode did not crash the victim")
	}
	w.Run(90 * bullet.Second)
	if !d.Live(victim) {
		t.Error("scenario RestartNode did not restart the victim")
	}
	if d.MemberEpoch() < 2 {
		t.Errorf("member epoch %d after crash+restart, want >= 2", d.MemberEpoch())
	}
}

// Join with an id that names no topology node is an error under every
// protocol — not an index-out-of-range panic in the emulator's handler
// table — whether it arrives through Deployment.Join or a scenario's
// JoinNode, and it leaves the membership untouched.
func TestJoinOutsideTopologyIsAnError(t *testing.T) {
	for _, p := range protocols() {
		t.Run(p.Name(), func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{Seed: 27})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(4)
			if err != nil {
				t.Fatal(err)
			}
			d, err := w.Deploy(p, tree)
			if err != nil {
				t.Fatal(err)
			}
			bad := []int{-1, len(w.Graph().Nodes), 1 << 28}
			for _, id := range bad {
				err := d.Join(id)
				if err == nil || !strings.Contains(err.Error(), "is not in the topology") {
					t.Errorf("Join(%d) = %v, want a not-in-the-topology error", id, err)
				}
			}
			s := bullet.NewScenario()
			for i, id := range bad {
				s.At(bullet.Time(i+1)*bullet.Second, bullet.JoinNode(id))
			}
			w.Scenario(s)
			w.Run(5 * bullet.Second)
			if d.MemberEpoch() != 0 || len(d.Nodes()) != len(tree.Participants) {
				t.Errorf("rejected joins changed membership: epoch %d, %d live of %d",
					d.MemberEpoch(), len(d.Nodes()), len(tree.Participants))
			}
		})
	}
}

// Stop halts a deployment: no useful bytes arrive afterwards.
func TestDeploymentStop(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.Deploy(bullet.StreamerProtocol{Config: bullet.StreamConfig{
		RateKbps: 400, PacketSize: 1500, Duration: 90 * bullet.Second,
	}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	w.At(40*bullet.Second, d.Stop)
	w.Run(100 * bullet.Second)
	if before := d.Collector().MeanOver(10*bullet.Second, 40*bullet.Second, bullet.Useful); before == 0 {
		t.Fatal("nothing delivered before Stop")
	}
	if after := d.Collector().MeanOver(45*bullet.Second, 100*bullet.Second, bullet.Useful); after != 0 {
		t.Errorf("%.3f Kbps delivered after Stop, want 0", after)
	}
}

// Two worlds with the same seed and the same churn schedule produce
// identical results — churn preserves the determinism contract.
func TestChurnDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1000, Clients: 20, Seed: 26})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := w.RandomTree(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := bullet.DefaultConfig(400)
		cfg.Start = 5 * bullet.Second
		cfg.Duration = 80 * bullet.Second
		cfg.MaxSenders, cfg.MaxReceivers = 4, 4
		d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
		if err != nil {
			t.Fatal(err)
		}
		victims := tree.Participants[1:6]
		w.Scenario(bullet.NewScenario().
			At(25*bullet.Second, bullet.ChurnNodes(victims...)).
			At(55*bullet.Second, bullet.RestartNode(victims[0])))
		w.Run(90 * bullet.Second)
		return d.Collector().MeanOver(0, 90*bullet.Second, bullet.Useful)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical churn runs diverged: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("nothing delivered")
	}
}

// foreignProtocol deploys Bullet but returns its own Deployment type,
// as a protocol registered from outside this package would.
type foreignProtocol struct{ bullet.BulletProtocol }

type foreignDeployment struct{ bullet.Deployment }

func (p foreignProtocol) Deploy(w *bullet.World, tree *bullet.Tree) (bullet.Deployment, error) {
	d, err := p.BulletProtocol.Deploy(w, tree)
	if err != nil {
		return nil, err
	}
	return foreignDeployment{d}, nil
}

// A Deploy that fails after the protocol is already wired in (an
// adversary asked of a Deployment type that cannot take one, or of a
// model that does not exist) stops it again: the caller gets no
// handle, so nothing may keep streaming.
func TestDeployFailureLeavesNothingRunning(t *testing.T) {
	bulletP := bullet.BulletProtocol{Config: bullet.DefaultConfig(600)}
	for _, c := range []struct {
		name  string
		p     bullet.Protocol
		model bullet.AdversaryModel
		want  string
	}{
		{"foreign", foreignProtocol{bulletP}, bullet.AdvFreeride, `deployment "bullet" does not support adversaries`},
		{"model99", bulletP, 99, "unknown adversary model Model(99)"},
		{"model-1", bulletP, -1, "unknown adversary model Model(-1)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 600, Clients: 12, Seed: 26})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(4)
			if err != nil {
				t.Fatal(err)
			}
			_, err = w.Deploy(c.p, tree, bullet.WithAdversary(bullet.Adversary{Model: c.model}))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Deploy error %v, want one containing %q", err, c.want)
			}
			if n := len(w.Deployments()); n != 0 {
				t.Fatalf("%d deployments tracked after a failed Deploy", n)
			}
			// Deploy itself sends (RanSub's first distribute), so the
			// counters are compared with their post-Deploy values, not
			// with zero.
			before := w.Network().Stats()
			w.Run(10 * bullet.Second)
			if after := w.Network().Stats(); after != before {
				t.Errorf("traffic after a failed Deploy:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// Membership operations on a world with nothing deployed name the
// operation and the reason.
func TestWorldMembershipWithoutDeployment(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 600, Clients: 12, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	n := w.Participants()[1]
	for op, err := range map[string]error{"crash": w.Crash(n), "restart": w.Restart(n), "join": w.Join(n)} {
		if want := "bullet: " + op + ": the world has no deployment"; err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", op, err, want)
		}
	}
}
