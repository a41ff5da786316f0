package tfrc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRateEquationKnownValues(t *testing.T) {
	// With p=0.01, R=0.1s, s=1500B, tRTO=0.4s the Padhye equation gives
	// roughly 1.2 Mbps-class TCP throughput; sanity check the formula
	// numerically against a direct evaluation.
	s, R, p := 1500.0, 0.1, 0.01
	tRTO := 4 * R
	want := s / (R*math.Sqrt(2*p/3) + tRTO*3*math.Sqrt(3*p/8)*p*(1+32*p*p))
	if got := Rate(s, R, p, tRTO); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Rate=%v want %v", got, want)
	}
	if got := Rate(s, R, p, tRTO); got < 50e3 || got > 250e3 {
		t.Fatalf("Rate=%v bytes/s implausible for p=1%%, R=100ms", got)
	}
}

func TestRateMonotonicity(t *testing.T) {
	// Rate decreases with p and with R.
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.01, 0.05, 0.2, 0.5} {
		r := Rate(1500, 0.1, p, 0.4)
		if r >= prev {
			t.Fatalf("rate not decreasing in p: p=%v r=%v prev=%v", p, r, prev)
		}
		prev = r
	}
	if Rate(1500, 0.2, 0.01, 0.8) >= Rate(1500, 0.1, 0.01, 0.4) {
		t.Fatal("rate not decreasing in RTT")
	}
}

func TestRateZeroLossInfinite(t *testing.T) {
	if !math.IsInf(Rate(1500, 0.1, 0, 0.4), 1) {
		t.Fatal("p=0 should be unconstrained")
	}
}

// Property: the equation is positive and finite for all valid inputs.
func TestRatePositiveProperty(t *testing.T) {
	f := func(pRaw, rRaw uint16) bool {
		p := 0.0001 + float64(pRaw)/65535.0*0.9
		R := 0.001 + float64(rRaw)/65535.0*2
		r := Rate(1500, R, p, 4*R)
		return r > 0 && !math.IsInf(r, 1) && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestLossHistoryP(t *testing.T) {
	var h LossHistory
	if h.P() != 0 {
		t.Fatal("P before any loss should be 0")
	}
	// 99 packets then a loss event, repeatedly: p should approach 1/100.
	for e := 0; e < 10; e++ {
		for i := 0; i < 99; i++ {
			h.OnPacket()
		}
		h.OnLossEvent()
		h.OnPacket()
	}
	p := h.P()
	if p < 0.005 || p > 0.02 {
		t.Fatalf("p=%v want ~0.01", p)
	}
}

func TestLossHistoryBounded(t *testing.T) {
	var h LossHistory
	for i := 0; i < 100; i++ {
		h.OnPacket()
		h.OnLossEvent()
	}
	if h.n > NumLossIntervals {
		t.Fatalf("history grew to %d", h.n)
	}
	if p := h.P(); p <= 0 || p > 1 {
		t.Fatalf("p=%v out of range", p)
	}
}

func TestLossHistoryOpenIntervalReducesP(t *testing.T) {
	var h LossHistory
	for i := 0; i < 10; i++ {
		h.OnPacket()
	}
	h.OnLossEvent()
	pAfterLoss := h.P()
	// A long run of successes (open interval) should reduce p.
	for i := 0; i < 1000; i++ {
		h.OnPacket()
	}
	if h.P() >= pAfterLoss {
		t.Fatalf("open interval ignored: p stayed at %v", h.P())
	}
}

func TestSenderSlowStartDoubling(t *testing.T) {
	s := NewSender(1500)
	r0 := s.rate
	s.OnFeedback(1, Feedback{P: 0, RecvRate: 1e9, RTTSample: 0.05})
	if s.rate < 1.9*r0 {
		t.Fatalf("slow start did not double: %v -> %v", r0, s.rate)
	}
	if !s.slowStart {
		t.Fatal("should be in slow start")
	}
}

func TestSenderSlowStartBoundedByRecvRate(t *testing.T) {
	s := NewSender(1500)
	for i := 0; i < 20; i++ {
		s.OnFeedback(float64(i), Feedback{P: 0, RecvRate: 50000, RTTSample: 0.05})
	}
	if s.rate > 2*50000+1 {
		t.Fatalf("rate %v exceeds 2x recv rate", s.rate)
	}
}

func TestSenderLossEndsSlowStart(t *testing.T) {
	s := NewSender(1500)
	for i := 0; i < 10; i++ {
		s.OnFeedback(float64(i), Feedback{P: 0, RecvRate: 1e8, RTTSample: 0.05})
	}
	high := s.rate
	s.OnFeedback(11, Feedback{P: 0.05, RecvRate: 1e8, RTTSample: 0.05})
	if s.slowStart {
		t.Fatal("still in slow start after loss")
	}
	if s.rate >= high {
		t.Fatalf("rate did not drop on loss: %v -> %v", high, s.rate)
	}
	// And the new rate should match the equation (bounded by 2*recv).
	want := Rate(1500, s.RTT(), 0.05, 4*s.RTT())
	if math.Abs(s.rate-want) > want*0.01 && s.rate != 2e8 {
		t.Fatalf("rate %v, equation %v", s.rate, want)
	}
}

func TestSenderMinRate(t *testing.T) {
	s := NewSender(1500)
	s.OnFeedback(1, Feedback{P: 0.9, RecvRate: 1, RTTSample: 2})
	if s.rate < 1500.0/64-1e-9 {
		t.Fatalf("rate %v below s/t_mbi floor", s.rate)
	}
}

func TestSenderTokenBucket(t *testing.T) {
	s := NewSender(1000)
	// Pin rate by exiting slow start at a known equation value.
	s.OnFeedback(0, Feedback{P: 0.01, RecvRate: 1e9, RTTSample: 0.1})
	rate := s.rate
	// Drain the bucket.
	n := 0
	for s.TrySend(1.0, 1000) {
		n++
		if n > 1000000 {
			t.Fatal("bucket never exhausts")
		}
	}
	// After 1 second, roughly `rate` more bytes should be available,
	// but capped at the burst bound (50ms of rate or 2 packets).
	if s.TrySend(1.0, 1000) {
		t.Fatal("send succeeded with empty bucket")
	}
	burst := rate * 0.05
	if burst < 2000 {
		burst = 2000
	}
	m := 0
	for s.TrySend(2.0, 1000) {
		m++
	}
	if float64(m)*1000 > burst+1000 {
		t.Fatalf("burst %d bytes exceeds cap %v", m*1000, burst)
	}
}

func TestSenderBudgetMatchesTrySend(t *testing.T) {
	s := NewSender(1000)
	s.refill(0)
	b := s.tokens
	if b < 1000 {
		t.Fatalf("initial budget %v cannot send first packet", b)
	}
}

func TestReceiverLossDetection(t *testing.T) {
	r := NewReceiver(0.1)
	now := 0.0
	seq := uint64(0)
	deliver := func(n int) {
		for i := 0; i < n; i++ {
			r.OnData(now, seq, 1000, now, 0.1)
			seq++
			now += 0.01
		}
	}
	deliver(100)
	if r.P() != 0 {
		t.Fatalf("loss before any gap: p=%v", r.P())
	}
	seq += 3 // lose 3 packets in one burst -> one loss event
	deliver(100)
	if r.P() == 0 {
		t.Fatal("gap not detected")
	}
	if r.hist.n == 0 || !r.inLossEvent {
		t.Fatal("gap not recorded as a loss event")
	}
}

func TestReceiverAggregatesLossesWithinRTT(t *testing.T) {
	// Two gaps within one RTT must form a single loss event; two gaps
	// separated by more than an RTT form two.
	r1 := NewReceiver(1.0) // huge RTT: everything is one event
	now := 0.0
	seq := uint64(0)
	step := func(r *Receiver, gap bool) {
		if gap {
			seq += 2
		}
		r.OnData(now, seq, 1000, now, 0)
		seq++
		now += 0.001
	}
	for i := 0; i < 50; i++ {
		step(r1, false)
	}
	step(r1, true)
	for i := 0; i < 5; i++ {
		step(r1, false)
	}
	step(r1, true) // within same RTT window
	if r1.hist.n != 1 {
		t.Fatalf("expected 1 loss event, got %d intervals", r1.hist.n)
	}

	r2 := NewReceiver(0.001)
	now, seq = 0, 0
	for i := 0; i < 50; i++ {
		step(r2, false)
	}
	step(r2, true)
	for i := 0; i < 50; i++ {
		step(r2, false) // 50ms elapse >> rtt
	}
	step(r2, true)
	if r2.hist.n != 2 {
		t.Fatalf("expected 2 loss events, got %d", r2.hist.n)
	}
}

func TestReceiverFeedback(t *testing.T) {
	r := NewReceiver(0.1)
	for i := 0; i < 10; i++ {
		r.OnData(float64(i)*0.01, uint64(i), 1500, float64(i)*0.01, 0.1)
	}
	fb, echo, hold := r.MakeFeedback(0.1)
	if fb.RecvRate <= 0 {
		t.Fatalf("recv rate %v", fb.RecvRate)
	}
	if echo != 0.09 {
		t.Fatalf("echo ts %v want 0.09", echo)
	}
	// Last packet arrived at t=0.09, feedback made at t=0.1.
	if hold < 0.0099 || hold > 0.0101 {
		t.Fatalf("hold %v want ~0.01", hold)
	}
	// Second window with no data: rate drops to 0.
	fb2, _, _ := r.MakeFeedback(0.2)
	if fb2.RecvRate != 0 {
		t.Fatalf("recv rate after idle window = %v", fb2.RecvRate)
	}
}

func TestReceiverDuplicateIgnored(t *testing.T) {
	r := NewReceiver(0.1)
	r.OnData(0, 5, 1000, 0, 0)
	r.OnData(0.01, 3, 1000, 0.01, 0) // late packet: not a loss signal
	if r.P() != 0 {
		t.Fatalf("late packet created loss event: p=%v", r.P())
	}
}

// Property: a lossless in-order stream never produces a loss event.
func TestReceiverLosslessProperty(t *testing.T) {
	f := func(n uint8) bool {
		r := NewReceiver(0.05)
		for i := uint64(0); i < uint64(n); i++ {
			r.OnData(float64(i)*0.001, i, 1200, float64(i)*0.001, 0.05)
		}
		return r.P() == 0 && r.hist.n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
