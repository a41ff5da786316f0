package transport

import (
	"testing"

	"bullet/internal/netem"
	"bullet/internal/sim"
	"bullet/internal/tfrc"
	"bullet/internal/topology"
)

// TestTFRCFriendlyWithAIMD verifies the paper's core transport
// property (§2.4): a TFRC flow sharing a bottleneck with a TCP-like
// AIMD flow obtains a comparable — neither starved nor dominating —
// share of the link.
func TestTFRCFriendlyWithAIMD(t *testing.T) {
	g, err := topology.Generate(topology.Config{
		TransitDomains: 1, TransitPerDomain: 2,
		StubDomains: 3, StubDomainSize: 4,
		Clients: 8, Bandwidth: topology.MediumBandwidth, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(31)
	net := netem.New(eng, g, topology.NewRouter(g), netem.Config{})
	src, d1, d2 := g.Clients[0], g.Clients[1], g.Clients[2]
	a := NewEndpoint(net, src)
	e1, e2 := NewEndpoint(net, d1), NewEndpoint(net, d2)
	var tfrcBytes, aimdBytes int
	e1.OnData(func(_ int, _ uint64, size int) { tfrcBytes += size })
	e2.OnData(func(_ int, _ uint64, size int) { aimdBytes += size })
	f1, err := a.OpenFlow(d1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := a.openFlow(d2, newAIMD(1024))
	if err != nil {
		t.Fatal(err)
	}
	// Both flows saturate; they share src's access link.
	var seq1, seq2 uint64
	var pump func()
	pump = func() {
		if eng.Now() >= 120*sim.Second {
			return
		}
		for f1.TrySend(seq1, 1000) {
			seq1++
		}
		for f2.TrySend(seq2, 1000) {
			seq2++
		}
		eng.After(10*sim.Millisecond, pump)
	}
	pump()
	eng.Run(120 * sim.Second)

	if tfrcBytes == 0 || aimdBytes == 0 {
		t.Fatalf("starvation: tfrc=%d aimd=%d", tfrcBytes, aimdBytes)
	}
	// Measure over the second half only (both past slow start).
	ratio := float64(tfrcBytes) / float64(aimdBytes)
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("unfriendly sharing: TFRC/AIMD byte ratio %.2f", ratio)
	}
}

// TestAIMDSawtooth checks the controller's basic AIMD dynamics.
func TestAIMDSawtooth(t *testing.T) {
	g, err := topology.Generate(topology.Config{
		TransitDomains: 1, TransitPerDomain: 2,
		StubDomains: 2, StubDomainSize: 3,
		Clients: 4, Bandwidth: topology.LowBandwidth, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(32)
	net := netem.New(eng, g, topology.NewRouter(g), netem.Config{})
	src, dst := g.Clients[0], g.Clients[1]
	a := NewEndpoint(net, src)
	b := NewEndpoint(net, dst)
	var bytes int
	b.OnData(func(_ int, _ uint64, size int) { bytes += size })
	f, err := a.openFlow(dst, newAIMD(1024))
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	var pump func()
	pump = func() {
		if eng.Now() >= 60*sim.Second {
			return
		}
		for f.TrySend(seq, 1000) {
			seq++
		}
		eng.After(10*sim.Millisecond, pump)
	}
	pump()
	eng.Run(60 * sim.Second)
	bn := topology.NewRouter(g).Bottleneck(src, dst)
	got := float64(bytes) / 60
	if got < 0.3*bn {
		t.Fatalf("AIMD achieved %.0f of %.0f bottleneck", got, bn)
	}
	if got > 1.05*bn {
		t.Fatalf("AIMD exceeded the physical bottleneck: %.0f > %.0f", got, bn)
	}
}

// aimd is a TCP-like rate controller: additive increase of one packet
// per RTT per feedback round, multiplicative decrease (halving) on
// each reported loss event — the sawtooth TFRC is designed to share
// fairly with (§2.4). It is the reference that verifies TFRC's TCP
// friendliness: a TFRC flow and an AIMD flow sharing a bottleneck
// should obtain comparable long-run throughput.
//
// Like the TFRC sender it is rate-based (the emulated transport has no
// per-packet ACK clock); the window semantics are approximated by
// cwnd = rate*rtt.
type aimd struct {
	PacketSize float64

	rate    float64
	rtt     float64
	haveRTT bool
	lastP   float64

	tokens     float64
	lastRefill float64
	minRate    float64
}

// newAIMD creates an AIMD controller starting at two packets per
// assumed RTT.
func newAIMD(packetSize float64) *aimd {
	a := &aimd{
		PacketSize: packetSize,
		rtt:        tfrc.InitialRTT,
	}
	a.minRate = packetSize / 8
	a.rate = 2 * packetSize / a.rtt
	a.tokens = 2 * packetSize
	return a
}

// RTT returns the smoothed RTT estimate in seconds.
func (a *aimd) RTT() float64 { return a.rtt }

func (a *aimd) refill(now float64) {
	if now > a.lastRefill {
		a.tokens += a.rate * (now - a.lastRefill)
		a.lastRefill = now
	}
	burst := a.rate * 0.02
	if burst < 2*a.PacketSize {
		burst = 2 * a.PacketSize
	}
	if a.tokens > burst {
		a.tokens = burst
	}
}

// TrySend consumes budget for one packet if the rate allows.
func (a *aimd) TrySend(now float64, size int) bool {
	a.refill(now)
	if a.tokens < float64(size) {
		return false
	}
	a.tokens -= float64(size)
	return true
}

// OnFeedback applies one AIMD round: halve if the receiver reports a
// higher loss event rate than before (a new loss event), otherwise add
// one packet per RTT of rate.
func (a *aimd) OnFeedback(now float64, fb tfrc.Feedback) {
	if fb.RTTSample > 0 {
		if !a.haveRTT {
			a.rtt = fb.RTTSample
			a.haveRTT = true
		} else {
			a.rtt = 0.9*a.rtt + 0.1*fb.RTTSample
		}
	}
	// A new loss event shows up as an *increase* in the reported loss
	// event rate; an unchanged or decaying P means the open loss
	// interval is growing (no new losses).
	lossEvent := fb.P > a.lastP*1.0001
	a.lastP = fb.P
	if lossEvent {
		a.rate /= 2
	} else {
		// Additive increase: one packet per RTT each RTT; feedback
		// arrives about once per RTT.
		a.rate += a.PacketSize / a.rtt
	}
	if a.rate < a.minRate {
		a.rate = a.minRate
	}
	// TCP is bounded by what the receiver absorbs, like TFRC's 2*X_recv.
	if limit := 2 * fb.RecvRate; limit > 0 && a.rate > limit && fb.RecvRate > 0 {
		a.rate = limit
	}
}
