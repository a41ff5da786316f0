package bullet_test

import (
	"fmt"
	"slices"

	"bullet"
)

// README's Go blocks quote these bodies. They drop the errors of calls
// on fixed, valid inputs to stay short: a failing call would still fail
// its Example, through a nil handle or a changed output.

// Every protocol deploys through World.Deploy, which returns a uniform
// Deployment handle.
func ExampleWorld_Deploy() {
	w, _ := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 1})
	tree, _ := w.RandomTree(4)

	cfg := bullet.DefaultConfig(600) // 600 Kbps stream
	cfg.Duration = 40 * bullet.Second
	d, _ := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)

	w.Run(50 * bullet.Second)
	fmt.Printf("%.0f Kbps\n", d.Collector().MeanOver(20*bullet.Second, 50*bullet.Second, bullet.Useful))
	// Output:
	// 395 Kbps
}

// A scenario replays timed link events: a transient partition of one
// client's access link, then a flapping bottleneck on it.
func ExampleWorld_Scenario() {
	w, _ := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 1})
	tree, _ := w.RandomTree(4)
	cfg := bullet.DefaultConfig(600)
	cfg.Start, cfg.Duration = 5*bullet.Second, 55*bullet.Second
	d, _ := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
	col := d.Collector()

	lid := w.Graph().AccessLink(w.Participants()[3]) // some client's access link
	orig := w.Graph().Links[lid].Kbps()
	w.Scenario(bullet.NewScenario().
		At(20*bullet.Second, bullet.FailLink(lid)).     // transient partition...
		At(30*bullet.Second, bullet.RestoreLink(lid)).  // ...healed 10s later
		Oscillate(45*bullet.Second, 5*bullet.Second, 2, // then a flapping bottleneck
			bullet.SetBandwidth(lid, orig*0.2),
			bullet.SetBandwidth(lid, orig)))

	w.Run(60 * bullet.Second)
	fmt.Printf("%.0f Kbps after heal\n", col.MeanOver(32*bullet.Second, 45*bullet.Second, bullet.Useful))
	// Output:
	// 550 Kbps after heal
}

// Membership events share the scenario schedules: a mass failure, one
// restart and a fresh participant.
func ExampleWorld_Scenario_churn() {
	w, _ := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 1})
	tree, _ := w.RandomTree(4)
	cfg := bullet.DefaultConfig(600)
	cfg.Duration = 50 * bullet.Second
	victims := tree.Participants[1:4]
	newcomer := len(w.Graph().Nodes) - 1 // a topology node that is not yet a participant
	for tree.Contains(newcomer) {
		newcomer--
	}

	d, _ := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
	w.Scenario(bullet.NewScenario().
		At(20*bullet.Second, bullet.ChurnNodes(victims...)).  // mass failure
		At(30*bullet.Second, bullet.RestartNode(victims[0])). // one comes back
		At(35*bullet.Second, bullet.JoinNode(newcomer)))      // a fresh participant
	w.Run(50 * bullet.Second)
	fmt.Println(len(d.Nodes()), "live nodes, member epoch", d.MemberEpoch())
	// Output:
	// 14 live nodes, member epoch 5
}

// Every protocol config carries a Workload; a finite one arms per-node
// completion tracking.
func ExampleFileWorkload() {
	// Bursty on/off streaming: 900 Kbps bursts, silent troughs.
	vbr := bullet.VBRWorkload{HighKbps: 900, LowKbps: 0,
		PacketSize: 1500, Period: 10 * bullet.Second, Duty: 0.5}

	// Finite fountain-coded file distribution: sequence numbers double as
	// encoded-symbol IDs; a node completes at (1+ε)·K distinct receipts —
	// no specific packet is ever required.
	file := bullet.FileWorkload{RateKbps: 800, PacketSize: 1400, K: 1000}

	for _, wl := range []bullet.Workload{vbr, file} {
		w, _ := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 1})
		tree, _ := w.RandomTree(4)
		cfg := bullet.DefaultConfig(600)
		cfg.Duration = 40 * bullet.Second
		cfg.Workload = wl
		d, _ := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
		w.Run(40 * bullet.Second)

		col := d.Collector()
		fmt.Printf("%s: %.0f Kbps", wl.Name(), col.MeanOver(10*bullet.Second, 40*bullet.Second, bullet.Useful))
		// Finite workloads arm per-node completion tracking automatically:
		if cdf := col.CompletionCDF(); len(cdf) > 0 { // sorted per-node time-to-finish (s)
			fmt.Printf(", %d nodes have the file, median at %.1f s", len(cdf), cdf[len(cdf)/2])
		}
		fmt.Println()
	}
	// Output:
	// vbr: 397 Kbps
	// file: 603 Kbps, 14 nodes have the file, median at 22.9 s
}

// An adversary fleet stays dormant until a scenario strike fires.
func ExampleWithAdversary() {
	w, _ := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 1})
	tree, _ := w.RandomTree(4)
	cfg := bullet.DefaultConfig(600)
	cfg.Duration = 50 * bullet.Second

	d, _ := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree,
		bullet.WithAdversary(bullet.Adversary{Model: bullet.AdvFreeride}))
	w.Scenario(bullet.NewScenario().
		At(20*bullet.Second, bullet.AdversaryAt()).                         // the strike
		At(30*bullet.Second, bullet.CompromiseNodes(tree.Participants[2]))) // recruit one more
	w.Run(50 * bullet.Second)
	bad := d.Colluders() // excluded from honest-subset metrics
	var honest []int
	for _, n := range d.Nodes() {
		if !slices.Contains(bad, n) {
			honest = append(honest, n)
		}
	}
	col := d.Collector()
	fmt.Printf("%d colluders %v; honest nodes %.0f Kbps before the strike, %.0f after\n", len(bad), bad,
		col.MeanOverNodes(honest, 10*bullet.Second, 20*bullet.Second, bullet.Useful),
		col.MeanOverNodes(honest, 35*bullet.Second, 50*bullet.Second, bullet.Useful))
	// Output:
	// 5 colluders [784 785 788 795 796]; honest nodes 536 Kbps before the strike, 377 after
}
