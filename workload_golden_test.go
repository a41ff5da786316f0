package bullet_test

import (
	"math"
	"testing"

	"bullet"
)

// Golden traces for the default-CBR workload across all four
// protocols. The constants were captured from the pre-workload-layer
// implementation (each protocol carrying its own private source pump);
// a run through the shared workload pump with a default CBR source
// must reproduce them bit-for-bit. Together with TestGoldenStreamerTrace
// these pin the workload refactor: introducing internal/workload must
// not change simulation semantics, only who owns packet generation.
func TestGoldenWorkloadCBRTraces(t *testing.T) {
	type golden struct {
		fired     uint64
		sent      uint64
		delivered uint64
		pkts      uint64
		useful    float64
	}
	cases := []struct {
		protocol string
		want     golden
	}{
		{"bullet", golden{2766401, 188934852, 176410620, 197471, 495.5625}},
		{"streamer", golden{855928, 72699372, 71682864, 70312, 234.28333333333333}},
		{"gossip", golden{8998609, 400690080, 352586544, 705322, 469.46756756756756}},
		{"anti-entropy", golden{975239, 72356472, 71254620, 79017, 213.56923076923078}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.protocol, func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{
				TotalNodes: 1500, Clients: 40, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(5)
			if err != nil {
				t.Fatal(err)
			}
			d, err := w.Deploy(goldenProtocol(tc.protocol), tree)
			if err != nil {
				t.Fatal(err)
			}
			w.Run(70 * bullet.Second)

			if fired := w.Network().Engine().Fired(); fired != tc.want.fired {
				t.Errorf("Engine.Fired() = %d, want %d", fired, tc.want.fired)
			}
			st := w.Network().Stats()
			if st.DataBytesSent != tc.want.sent {
				t.Errorf("DataBytesSent = %d, want %d", st.DataBytesSent, tc.want.sent)
			}
			if st.DataBytesDelivered != tc.want.delivered {
				t.Errorf("DataBytesDelivered = %d, want %d", st.DataBytesDelivered, tc.want.delivered)
			}
			if st.DeliveredPackets != tc.want.pkts {
				t.Errorf("DeliveredPackets = %d, want %d", st.DeliveredPackets, tc.want.pkts)
			}
			useful := d.Collector().MeanOver(30*bullet.Second, 70*bullet.Second, bullet.Useful)
			if math.Abs(useful-tc.want.useful) > 1e-9 {
				t.Errorf("useful = %v Kbps, want %v", useful, tc.want.useful)
			}
		})
	}
}

// goldenProtocol returns the fixed 600 Kbps / 5 s–65 s configuration
// the golden traces in this file run each protocol with.
func goldenProtocol(name string) bullet.Protocol {
	s := bullet.StreamConfig{RateKbps: 600, PacketSize: 1500, Start: 5 * bullet.Second, Duration: 60 * bullet.Second}
	switch name {
	case "bullet":
		cfg := bullet.DefaultConfig(600)
		cfg.Stream = s
		cfg.MaxSenders, cfg.MaxReceivers = 4, 4
		return bullet.BulletProtocol{Config: cfg}
	case "streamer":
		return bullet.StreamerProtocol{Config: s}
	case "gossip":
		return bullet.GossipProtocol{Config: s}
	case "anti-entropy":
		return bullet.AntiEntropyProtocol{Config: s}
	}
	panic("no golden configuration for protocol " + name)
}

// Golden traces for membership churn across all four protocols: one
// schedule — crash the heaviest root child, crash one of its children
// before that first failure is detected, join a topology node that was
// never a participant, restart both victims — pinned to exact event
// and byte counts. Crash, Restart and Join mean the same thing under
// every protocol only if one implementation provides them; these
// constants were captured while each protocol still carried its own
// copy, so the shared member.Roster must reproduce them bit-for-bit.
func TestGoldenChurnTraces(t *testing.T) {
	type golden struct {
		fired     uint64
		sent      uint64
		delivered uint64
		epoch     int
		live      int
		useful    float64
	}
	cases := []struct {
		protocol string
		want     golden
	}{
		{"bullet", golden{2787090, 188931804, 176721516, 5, 41, 496.8219512195122}},
		{"streamer", golden{742255, 63069216, 62124336, 5, 41, 198.53658536585365}},
		{"gossip", golden{9060691, 395528292, 348148656, 5, 41, 453.1601845748187}},
		{"anti-entropy", golden{896909, 66621660, 65778888, 5, 41, 194.78780487804877}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.protocol, func(t *testing.T) {
			w, err := bullet.NewWorld(bullet.WorldConfig{
				TotalNodes: 1500, Clients: 40, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := w.RandomTree(5)
			if err != nil {
				t.Fatal(err)
			}
			victim, _ := tree.HeaviestChild(tree.Root)
			second, _ := tree.HeaviestChild(victim)
			fresh := len(w.Graph().Nodes) - 1
			for tree.Contains(fresh) {
				fresh--
			}
			if victim != 1488 || second != 1468 || fresh != 1457 {
				t.Fatalf("node selection drifted: victim=%d second=%d fresh=%d, want 1488/1468/1457", victim, second, fresh)
			}
			d, err := w.Deploy(goldenProtocol(tc.protocol), tree)
			if err != nil {
				t.Fatal(err)
			}
			w.Scenario(bullet.NewScenario().
				At(20*bullet.Second, bullet.CrashNode(victim)).
				At(21*bullet.Second, bullet.CrashNode(second)).
				At(30*bullet.Second, bullet.JoinNode(fresh)).
				At(40*bullet.Second, bullet.RestartNode(victim)).
				At(45*bullet.Second, bullet.RestartNode(second)))
			w.Run(70 * bullet.Second)

			if fired := w.Network().Engine().Fired(); fired != tc.want.fired {
				t.Errorf("Engine.Fired() = %d, want %d", fired, tc.want.fired)
			}
			st := w.Network().Stats()
			if st.DataBytesSent != tc.want.sent {
				t.Errorf("DataBytesSent = %d, want %d", st.DataBytesSent, tc.want.sent)
			}
			if st.DataBytesDelivered != tc.want.delivered {
				t.Errorf("DataBytesDelivered = %d, want %d", st.DataBytesDelivered, tc.want.delivered)
			}
			if got := d.MemberEpoch(); got != tc.want.epoch {
				t.Errorf("MemberEpoch = %d, want %d", got, tc.want.epoch)
			}
			if got := len(d.Nodes()); got != tc.want.live {
				t.Errorf("%d live nodes, want %d", got, tc.want.live)
			}
			useful := d.Collector().MeanOver(30*bullet.Second, 70*bullet.Second, bullet.Useful)
			if math.Abs(useful-tc.want.useful) > 1e-9 {
				t.Errorf("useful = %v Kbps, want %v", useful, tc.want.useful)
			}
		})
	}
}
