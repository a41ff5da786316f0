package bullet_test

import (
	"testing"

	"bullet"
	"bullet/internal/topology"
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

// A world is a pure function of its seed, and NewWorldOn over the
// graph NewWorld would generate is the same world.
func TestWorldDeterminism(t *testing.T) {
	generated := func() *bullet.World {
		w, err := bullet.NewWorld(bullet.WorldConfig{TotalNodes: 1000, Clients: 20, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wrapped := func() *bullet.World {
		tc := topology.Sized(1000, 20, bullet.MediumBandwidth)
		tc.Seed = 9
		g, err := topology.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		return bullet.NewWorldOn(g, 9, 0)
	}
	run := func(w *bullet.World) float64 {
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
	a, b := run(generated()), run(generated())
	if a != b {
		t.Fatalf("identical seeds diverged: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("nothing delivered")
	}
	if c := run(wrapped()); c != a {
		t.Fatalf("NewWorldOn over the same graph diverged: %v vs %v", c, a)
	}
}

// A negative size is refused under the name of the field that carries
// it, not as whatever it turns into inside the topology generator.
func TestNewWorldRejectsNegativeSizes(t *testing.T) {
	for _, c := range []struct {
		cfg  bullet.WorldConfig
		want string
	}{
		{bullet.WorldConfig{TotalNodes: -3}, "bullet: negative TotalNodes -3"},
		{bullet.WorldConfig{Clients: -1}, "bullet: negative Clients -1"},
	} {
		if _, err := bullet.NewWorld(c.cfg); err == nil || err.Error() != c.want {
			t.Errorf("NewWorld error %v, want %q", err, c.want)
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
