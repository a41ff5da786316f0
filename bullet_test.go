package bullet_test

import (
	"strings"
	"testing"

	"bullet"
)

func TestNewWorldDefaults(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Participants()) != 40 {
		t.Fatalf("default clients = %d, want 40", len(w.Participants()))
	}
	if w.Now() != 0 {
		t.Fatal("fresh world clock nonzero")
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() float64 {
		w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1000, Clients: 20, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := w.RandomTree(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := bullet.DefaultConfig(400)
		cfg.Duration = 60 * bullet.Second
		cfg.MaxSenders, cfg.MaxReceivers = 4, 4
		d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
		if err != nil {
			t.Fatal(err)
		}
		col := d.Collector()
		w.Run(70 * bullet.Second)
		return col.MeanOver(0, 70*bullet.Second, bullet.Useful)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical seeds diverged: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	_, err := bullet.RunExperiment("fig99", bullet.SmallScale, 1)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	ue, ok := err.(*bullet.UnknownExperimentError)
	if !ok {
		t.Fatalf("wrong error type %T", err)
	}
	if ue.Suggestion != "fig9" {
		t.Errorf("suggestion %q, want fig9", ue.Suggestion)
	}
	if !strings.Contains(err.Error(), `did you mean "fig9"?`) {
		t.Errorf("error %q missing did-you-mean", err.Error())
	}
}

func TestExperimentsListed(t *testing.T) {
	ids := bullet.Experiments()
	if len(ids) != 28 {
		t.Fatalf("%d experiments, want 28", len(ids))
	}
	listed := make(map[string]bool, len(ids))
	for _, id := range ids {
		listed[id] = true
	}
	for _, id := range []string{
		"dyn-bottleneck", "dyn-partition", "dyn-flashcrowd", "dyn-oscillate",
		"churn-crash25", "churn-crashheal", "churn-rolling", "churn-join",
		"churn-xl", "filedist-compare", "vbr-stream",
		"adv-freeride", "adv-liar", "adv-cutvertex", "adv-joinstorm",
		"adv-ballotstuff",
	} {
		if !listed[id] {
			t.Errorf("experiment %q not listed", id)
		}
	}
}

func TestFacadeTreeBuilders(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (*bullet.Tree, error){
		"random":     func() (*bullet.Tree, error) { return w.RandomTree(4) },
		"bottleneck": func() (*bullet.Tree, error) { return w.BottleneckTree() },
		"overcast":   func() (*bullet.Tree, error) { return w.OvercastTree(4) },
	} {
		tree, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tree.Validate(w.Participants()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFacadeBaselines(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Deploy(bullet.GossipProtocol{Config: bullet.StreamConfig{
		RateKbps: 300, PacketSize: 1500, Duration: 30 * bullet.Second,
	}}, nil); err != nil {
		t.Fatal(err)
	}
	w.Run(40 * bullet.Second)

	w2, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 800, Clients: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w2.RandomTree(4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w2.Deploy(bullet.AntiEntropyProtocol{Config: bullet.StreamConfig{
		RateKbps: 300, PacketSize: 1500, Duration: 40 * bullet.Second,
	}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	col := d.Collector()
	w2.Run(60 * bullet.Second)
	if col.Total(bullet.Useful) == 0 {
		t.Fatal("anti-entropy delivered nothing")
	}
}
