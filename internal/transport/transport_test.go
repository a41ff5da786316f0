package transport

import (
	"runtime"
	"testing"

	"bullet/internal/netem"
	"bullet/internal/sim"
	"bullet/internal/tfrc"
	"bullet/internal/topology"
)

func testWorld(t *testing.T, seed int64, bw topology.BandwidthProfile, loss topology.LossProfile) (*sim.Engine, *netem.Network, *topology.Graph) {
	t.Helper()
	g, err := topology.Generate(topology.Config{
		TransitDomains: 1, TransitPerDomain: 2,
		StubDomains: 3, StubDomainSize: 4,
		Clients: 8, Bandwidth: bw, Loss: loss, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(seed)
	net := netem.New(eng, g, topology.NewRouter(g), netem.Config{})
	return eng, net, g
}

// pump drives a flow at maximum allowed rate with 1000-byte packets.
func pump(eng *sim.Engine, f *Flow, until sim.Time) {
	var seq uint64
	var tick func()
	tick = func() {
		if eng.Now() >= until || f.closed {
			return
		}
		for f.TrySend(seq, 1000) {
			seq++
		}
		eng.After(10*sim.Millisecond, tick)
	}
	tick()
}

func TestFlowRampsToBottleneck(t *testing.T) {
	eng, net, g := testWorld(t, 1, topology.MediumBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	var bytes int
	b.OnData(func(from int, seq uint64, size int) { bytes += size })
	f, err := a.OpenFlow(dst, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pump(eng, f, 30*sim.Second)
	eng.Run(30 * sim.Second)
	bn := topology.NewRouter(g).Bottleneck(src, dst)
	// Average over the run includes ramp-up; expect at least 50% of
	// bottleneck and no more than bottleneck.
	got := float64(bytes) / 30
	if got < 0.5*bn {
		t.Fatalf("throughput %.0f B/s too far below bottleneck %.0f", got, bn)
	}
	if got > 1.02*bn {
		t.Fatalf("throughput %.0f B/s exceeds bottleneck %.0f: not TCP friendly", got, bn)
	}
	if rtt := f.snd.RTT(); rtt <= 0 || rtt > 1 {
		t.Fatalf("implausible RTT estimate %v", rtt)
	}
}

func TestFlowBacksOffUnderLoss(t *testing.T) {
	eng, net, g := testWorld(t, 2, topology.HighBandwidth,
		topology.LossProfile{NonTransitMax: 0.08, TransitMax: 0.08})
	src, dst := g.Clients[0], g.Clients[2]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	var bytes int
	b.OnData(func(from int, seq uint64, size int) { bytes += size })
	f, _ := a.OpenFlow(dst, 1024)
	pump(eng, f, 30*sim.Second)
	eng.Run(30 * sim.Second)
	bn := topology.NewRouter(g).Bottleneck(src, dst)
	got := float64(bytes) / 30
	if got > 0.9*bn {
		t.Fatalf("lossy path delivered %.0f of %.0f bottleneck; TFRC not backing off", got, bn)
	}
	if got == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	eng, net, g := testWorld(t, 3, topology.MediumBandwidth, topology.NoLoss)
	// Two flows from the same source share its access link.
	src, d1, d2 := g.Clients[0], g.Clients[3], g.Clients[4]
	a := NewEndpoint(net, src)
	e1, e2 := NewEndpoint(net, d1), NewEndpoint(net, d2)
	var b1, b2 int
	e1.OnData(func(_ int, _ uint64, size int) { b1 += size })
	e2.OnData(func(_ int, _ uint64, size int) { b2 += size })
	f1, _ := a.OpenFlow(d1, 1024)
	f2, _ := a.OpenFlow(d2, 1024)
	pump(eng, f1, 40*sim.Second)
	pump(eng, f2, 40*sim.Second)
	eng.Run(40 * sim.Second)
	access := topology.NewRouter(g).Bottleneck(src, d1) // access link dominates
	total := float64(b1+b2) / 40
	if total > 1.1*access {
		t.Fatalf("combined %.0f B/s greatly exceeds access capacity %.0f", total, access)
	}
	// Both flows should make progress.
	if b1 == 0 || b2 == 0 {
		t.Fatalf("starvation: b1=%d b2=%d", b1, b2)
	}
	ratio := float64(b1) / float64(b2)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("grossly unfair sharing: %d vs %d", b1, b2)
	}
}

func TestTrySendNonBlocking(t *testing.T) {
	eng, net, g := testWorld(t, 4, topology.LowBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a := NewEndpoint(net, src)
	NewEndpoint(net, dst)
	f, _ := a.OpenFlow(dst, 1024)
	// Initial budget allows a couple of packets, then must refuse.
	n := 0
	for f.TrySend(uint64(n), 1024) {
		n++
		if n > 10000 {
			t.Fatal("TrySend never fails")
		}
	}
	if n == 0 {
		t.Fatal("first TrySend failed")
	}
	if f.TrySend(99, 1024) {
		t.Fatal("send succeeded after budget exhausted")
	}
	_ = eng
}

func TestFlowClose(t *testing.T) {
	eng, net, g := testWorld(t, 5, topology.MediumBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	got := 0
	b.OnData(func(int, uint64, int) { got++ })
	f, _ := a.OpenFlow(dst, 1024)
	f.TrySend(1, 1000)
	eng.Run(2 * sim.Second)
	f.Close()
	eng.Run(4 * sim.Second)
	if f.TrySend(2, 1000) {
		t.Fatal("send succeeded on closed flow")
	}
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if len(b.recvFlows) != 0 {
		t.Fatal("receiver state not cleaned up after close")
	}
}

func TestEndpointFail(t *testing.T) {
	eng, net, g := testWorld(t, 6, topology.MediumBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	got := 0
	b.OnData(func(int, uint64, int) { got++ })
	f, _ := a.OpenFlow(dst, 1024)
	b.Fail()
	f.TrySend(1, 1000)
	eng.Run(2 * sim.Second)
	if got != 0 {
		t.Fatal("failed endpoint received data")
	}
	if !b.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
}

func TestControlMessages(t *testing.T) {
	eng, net, g := testWorld(t, 7, topology.MediumBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	type hello struct{ N int }
	var got *hello
	var gotFrom, gotSize int
	b.OnControl(func(from int, payload any, size int) {
		got = payload.(*hello)
		gotFrom, gotSize = from, size
	})
	a.SendControl(dst, &hello{N: 42}, 120)
	eng.Run(2 * sim.Second)
	if got == nil || got.N != 42 || gotFrom != src || gotSize != 120 {
		t.Fatalf("control delivery wrong: %+v from=%d size=%d", got, gotFrom, gotSize)
	}
	_, out := a.ControlBytes()
	if out != 120 {
		t.Fatalf("control out bytes=%d", out)
	}
}

func TestOpenFlowToSelfRejected(t *testing.T) {
	_, net, g := testWorld(t, 8, topology.MediumBandwidth, topology.NoLoss)
	a := NewEndpoint(net, g.Clients[0])
	if _, err := a.OpenFlow(g.Clients[0], 1024); err == nil {
		t.Fatal("flow to self allowed")
	}
}

func TestAppLimitedFlowDoesNotBlowUp(t *testing.T) {
	// A flow sending far below capacity should keep a stable modest
	// rate and not accumulate unbounded burst.
	eng, net, g := testWorld(t, 9, topology.HighBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	var bytes int
	b.OnData(func(int, uint64, int) { bytes += 500 })
	f, _ := a.OpenFlow(dst, 512)
	var seq uint64
	tick := func() {}
	_ = tick
	var send func()
	send = func() {
		if eng.Now() >= 20*sim.Second {
			return
		}
		f.TrySend(seq, 500) // ~5 KB/s offered
		seq++
		eng.After(100*sim.Millisecond, send)
	}
	send()
	eng.Run(20 * sim.Second)
	got := float64(bytes) / 20
	if got < 3000 || got > 7000 {
		t.Fatalf("app-limited flow delivered %.0f B/s, offered ~5000", got)
	}
}

// TestFeedbackMemoryIsBounded pumps one one-way flow for ten virtual
// minutes and holds the heap growth after the first to 64 KiB. On a
// one-way flow the receiver only ever builds TFRC reports and the
// sender only ever consumes them, so any pool a report is taken from
// on one side and returned to on the other grows with the run.
func TestFeedbackMemoryIsBounded(t *testing.T) {
	eng, net, g := testWorld(t, 1, topology.MediumBandwidth, topology.NoLoss)
	src, dst := g.Clients[0], g.Clients[1]
	a, b := NewEndpoint(net, src), NewEndpoint(net, dst)
	var bytes int
	b.OnData(func(from int, seq uint64, size int) { bytes += size })
	f, err := a.OpenFlow(dst, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pump(eng, f, 600*sim.Second)
	eng.Run(60 * sim.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run(600 * sim.Second)
	runtime.ReadMemStats(&after)
	if bytes == 0 {
		t.Fatal("nothing delivered")
	}
	// Only a feedback report's RTT sample moves the estimate.
	if f.snd.RTT() == tfrc.InitialRTT {
		t.Fatal("no feedback report reached the sender")
	}
	grew, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("t = 60 s to 600 s: %d bytes in %d mallocs", grew, mallocs)
	if grew > 64<<10 {
		t.Fatalf("heap advanced %d bytes (%d mallocs) over 540 s of one flow, want at most %d", grew, mallocs, 64<<10)
	}
}
