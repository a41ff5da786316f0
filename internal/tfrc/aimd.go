package tfrc

// AIMD is a TCP-like rate controller: additive increase of one packet
// per RTT per feedback round, multiplicative decrease (halving) on
// each reported loss event — the sawtooth TFRC is designed to share
// fairly with (§2.4). It exists so the repository can *verify* TFRC's
// TCP friendliness: a TFRC flow and an AIMD flow sharing a bottleneck
// should obtain comparable long-run throughput.
//
// Like the TFRC sender it is rate-based (the emulated transport has no
// per-packet ACK clock); the window semantics are approximated by
// cwnd = rate*rtt.
type AIMD struct {
	PacketSize float64

	rate    float64
	rtt     float64
	haveRTT bool
	lastP   float64

	tokens     float64
	lastRefill float64
	minRate    float64
}

// NewAIMD creates an AIMD controller starting at two packets per
// assumed RTT.
func NewAIMD(packetSize float64) *AIMD {
	a := &AIMD{
		PacketSize: packetSize,
		rtt:        InitialRTT,
	}
	a.minRate = packetSize / 8
	a.rate = 2 * packetSize / a.rtt
	a.tokens = 2 * packetSize
	return a
}

// RTT returns the smoothed RTT estimate in seconds.
func (a *AIMD) RTT() float64 { return a.rtt }

func (a *AIMD) refill(now float64) {
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
func (a *AIMD) TrySend(now float64, size int) bool {
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
func (a *AIMD) OnFeedback(now float64, fb Feedback) {
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
