package bullet_test

import (
	"math"
	"testing"

	"bullet"
	"bullet/internal/experiments"
)

// Golden-trace determinism tests. The constants below were captured
// from the pre-refactor seed implementation (pointer-heap scheduler,
// per-packet path recomputation) on linux/amd64 with seed 42; the
// rebuilt hot path must reproduce them bit-for-bit. They double as the
// determinism contract for future changes: a PR that shifts any of
// these values has changed simulation semantics, not just performance.

// A plain tree-streaming run over a lossy 1500-node topology: every
// event count and byte counter must match the seed implementation.
func TestGoldenStreamerTrace(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{
		TotalNodes: 1500, Clients: 40, Seed: 42, Loss: bullet.PaperLoss,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.Deploy(bullet.StreamerProtocol{Config: bullet.StreamConfig{
		RateKbps: 600, PacketSize: 1500,
		Start: 5 * bullet.Second, Duration: 60 * bullet.Second,
	}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	col := d.Collector()
	w.Run(70 * bullet.Second)

	if fired := w.Network().Engine().Fired(); fired != 737583 {
		t.Errorf("Engine.Fired() = %d, want 737583", fired)
	}
	st := w.Network().Stats()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"DataBytesSent", st.DataBytesSent, 57793128},
		{"DataBytesDelivered", st.DataBytesDelivered, 54992016},
		{"ControlBytes", st.ControlBytes, 1244160},
		{"CongestionDrops", st.CongestionDrops, 275},
		{"RandomLossDrops", st.RandomLossDrops, 1563},
		{"DeliveredPackets", st.DeliveredPackets, 62004},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	useful := col.MeanOver(30*bullet.Second, 70*bullet.Second, bullet.Useful)
	if math.Abs(useful-184.10833333333332) > 1e-9 {
		t.Errorf("useful = %.12f Kbps, want 184.108333333333", useful)
	}
}

// A dynamic-scenario golden trace: the same streamer configuration as
// TestGoldenStreamerTrace (lossless here) with the worst-case subtree's
// access link failed at t=20s and restored at t=40s. Pins the full
// dynamics path — route-epoch invalidation, in-flight re-resolution,
// down-link drops — to exact values, so any semantic change to the
// network dynamics subsystem is caught, not just static-path changes.
func TestGoldenDynamicScenarioTrace(t *testing.T) {
	w, err := bullet.NewWorld(bullet.WorldConfig{
		TotalNodes: 1500, Clients: 40, Seed: 42, Loss: bullet.PaperLoss,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(5)
	if err != nil {
		t.Fatal(err)
	}
	victim, best := tree.HeaviestChild(tree.Root)
	lid := w.Graph().AccessLink(victim)
	if victim != 1488 || best != 18 || lid != 1873 {
		t.Fatalf("victim selection drifted: victim=%d desc=%d link=%d, want 1488/18/1873", victim, best, lid)
	}
	d, err := w.Deploy(bullet.StreamerProtocol{Config: bullet.StreamConfig{
		RateKbps: 600, PacketSize: 1500,
		Start: 5 * bullet.Second, Duration: 60 * bullet.Second,
	}}, tree)
	if err != nil {
		t.Fatal(err)
	}
	col := d.Collector()
	w.Scenario(bullet.NewScenario().
		At(20*bullet.Second, bullet.FailLink(lid)).
		At(40*bullet.Second, bullet.RestoreLink(lid)))
	w.Run(70 * bullet.Second)

	if fired := w.Network().Engine().Fired(); fired != 556041 {
		t.Errorf("Engine.Fired() = %d, want 556041", fired)
	}
	st := w.Network().Stats()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"DataBytesSent", st.DataBytesSent, 43886628},
		{"DataBytesDelivered", st.DataBytesDelivered, 41778936},
		{"ControlBytes", st.ControlBytes, 927984},
		{"CongestionDrops", st.CongestionDrops, 264},
		{"RandomLossDrops", st.RandomLossDrops, 1069},
		{"LinkDownDrops", st.LinkDownDrops, 6},
		{"ReroutedPackets", st.ReroutedPackets, 119},
		{"DeliveredPackets", st.DeliveredPackets, 46682},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	useful := col.MeanOver(30*bullet.Second, 70*bullet.Second, bullet.Useful)
	if math.Abs(useful-132.325) > 1e-9 {
		t.Errorf("useful = %.12f Kbps, want 132.325000000000", useful)
	}
}

// The headline dynamics claim as a regression test: after a transient
// partition of the worst-case subtree (FailLink at 1/3 of the stream,
// RestoreLink at 2/3), Bullet's useful bandwidth recovers — its mesh
// keeps descendants fed during the outage and backfills the victim
// afterwards — while the plain streamer permanently loses the data sent
// during the outage and degrades badly while it lasts.
func TestDynPartitionBulletRecoversStreamerDoesNot(t *testing.T) {
	if testing.Short() {
		t.Skip("two full small-scale runs; skipped in -short")
	}
	r, err := experiments.DynPartition(experiments.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary
	// Bullet recovers: post-restore useful bandwidth back to (here,
	// beyond — catch-up) its pre-failure level.
	if ratio := s["bullet_recovery_ratio"]; ratio < 0.95 {
		t.Errorf("bullet recovery ratio %.3f, want >= 0.95", ratio)
	}
	// Bullet's mesh holds the floor during the outage.
	if s["bullet_during_kbps"] < 0.9*s["bullet_before_kbps"] {
		t.Errorf("bullet during outage %.1f Kbps vs %.1f before: mesh did not hold",
			s["bullet_during_kbps"], s["bullet_before_kbps"])
	}
	// The streamer collapses during the outage...
	if s["stream_during_kbps"] > 0.75*s["stream_before_kbps"] {
		t.Errorf("stream during outage %.1f Kbps vs %.1f before: expected collapse",
			s["stream_during_kbps"], s["stream_before_kbps"])
	}
	// ...and never gets the lost data back: its overall mean stays
	// depressed, while Bullet's overall mean stays at its baseline.
	if s["stream_overall_kbps"] > 0.92*s["stream_before_kbps"] {
		t.Errorf("stream overall %.1f Kbps vs %.1f before: outage loss should be permanent",
			s["stream_overall_kbps"], s["stream_before_kbps"])
	}
	if s["bullet_overall_kbps"] < 0.98*s["bullet_before_kbps"] {
		t.Errorf("bullet overall %.1f Kbps vs %.1f before: outage loss should be transient",
			s["bullet_overall_kbps"], s["bullet_before_kbps"])
	}
	// And head-to-head, Bullet recovers where the streamer does not.
	if s["bullet_recovery_ratio"] < s["stream_recovery_ratio"]+0.1 {
		t.Errorf("bullet recovery %.3f not clearly above streamer recovery %.3f",
			s["bullet_recovery_ratio"], s["stream_recovery_ratio"])
	}
}

// The Figure 7 headline metrics for the standard (small, seed 42)
// configuration — the numbers the benchmark trajectory tracks.
func TestGoldenFig07Metrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig7 run; skipped in -short")
	}
	r, err := experiments.Fig07(experiments.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"useful_total tail mean", r.MeanTail("useful_total", 0.4), 540.27},
		{"raw_total tail mean", r.MeanTail("raw_total", 0.4), 634.39},
		{"duplicate_ratio", r.Summary["duplicate_ratio"], 0.159561132},
		{"control_overhead_kbps", r.Summary["control_overhead_kbps"], 19.964576},
		{"link_stress_avg", r.Summary["link_stress_avg"], 2.383302549},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-6 {
			t.Errorf("%s = %.9f, want %.9f", c.name, c.got, c.want)
		}
	}
}
