// Package tfrc implements TCP-Friendly Rate Control as described in
// §2.4 of the Bullet paper (Floyd et al., SIGCOMM 2000 / RFC 3448):
// an equation-based, loss-event-driven congestion control that targets
// a smooth sending rate while remaining fair to TCP. As in Bullet, the
// transport is unreliable: lost packets are never retransmitted, since
// Bullet recovers them from other peers.
//
// The package is pure protocol logic — the sender and receiver halves
// are driven by the transport layer (package transport), which moves
// packets and feedback through the emulated network.
package tfrc

import "math"

// Rate evaluates the TCP response function used by TFRC (the Padhye
// steady-state TCP throughput equation, §2.4):
//
//	T = s / (R*sqrt(2p/3) + tRTO*(3*sqrt(3p/8))*p*(1+32p^2))
//
// with packet size s in bytes, round-trip time R and retransmission
// timeout tRTO in seconds, and loss event rate p in [0,1]. The result
// is in bytes/second. p = 0 yields +Inf (no equation constraint).
func Rate(s, R, p, tRTO float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if R <= 0 {
		R = 1e-3
	}
	denom := R*math.Sqrt(2*p/3) + tRTO*3*math.Sqrt(3*p/8)*p*(1+32*p*p)
	return s / denom
}

// NumLossIntervals is the size of the loss interval history (RFC 3448).
const NumLossIntervals = 8

// lossIntervalWeights are the RFC 3448 weights for the average loss
// interval, most recent first.
var lossIntervalWeights = [NumLossIntervals]float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}

// LossHistory tracks loss intervals at the receiver and computes the
// reported loss event rate p. The history is a fixed-size ring shifted
// in place: recording a loss event and computing P are allocation-free
// (this sits on the per-packet path of every TFRC flow).
type LossHistory struct {
	// intervals[0] is the most recent *closed* interval; n counts how
	// many entries are populated, so it is zero until the first loss
	// event.
	intervals [NumLossIntervals]float64
	n         int
	// current counts packets since the last loss event (open interval).
	current float64
}

// OnPacket records a successfully received packet.
func (h *LossHistory) OnPacket() { h.current++ }

// OnLossEvent closes the current interval and starts a new one. The
// caller is responsible for aggregating losses within one RTT into a
// single event.
func (h *LossHistory) OnLossEvent() {
	copy(h.intervals[1:], h.intervals[:])
	h.intervals[0] = h.current
	if h.n < NumLossIntervals {
		h.n++
	}
	h.current = 0
}

// SeedFirstInterval sets the synthetic length of the first loss
// interval, derived from the receive rate before the first loss
// (RFC 3448 §6.3.1). Call immediately after the first OnLossEvent.
func (h *LossHistory) SeedFirstInterval(packets float64) {
	if h.n == 1 && packets > h.intervals[0] {
		h.intervals[0] = packets
	}
}

// P returns the loss event rate: the inverse of the weighted average
// loss interval, computed both with and without the open current
// interval, taking the larger average (RFC 3448 §5.4). Returns 0 before
// any loss event.
func (h *LossHistory) P() float64 {
	if h.n == 0 {
		return 0
	}
	avgClosed := weightedAvg(h.intervals[:h.n])
	// Including the open interval as the most recent value: weight 0
	// applies to current, the closed intervals shift one weight down,
	// and the oldest falls off when the history is full.
	num := lossIntervalWeights[0] * h.current
	den := lossIntervalWeights[0]
	for i := 0; i < h.n && i+1 < NumLossIntervals; i++ {
		num += lossIntervalWeights[i+1] * h.intervals[i]
		den += lossIntervalWeights[i+1]
	}
	avgOpen := num / den
	avg := avgClosed
	if avgOpen > avg {
		avg = avgOpen
	}
	if avg < 1 {
		avg = 1
	}
	return 1 / avg
}

func weightedAvg(intervals []float64) float64 {
	var num, den float64
	for i, v := range intervals {
		if i >= NumLossIntervals {
			break
		}
		num += lossIntervalWeights[i] * v
		den += lossIntervalWeights[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Sender is the TFRC sender half: it maintains the allowed sending rate
// and a token bucket that enforces it. All times are float64 seconds so
// the package stays independent of the simulator's clock type.
type Sender struct {
	PacketSize float64 // nominal segment size s, bytes

	rate      float64 // allowed rate, bytes/s
	rtt       float64 // smoothed RTT estimate, seconds
	haveRTT   bool
	slowStart bool

	tokens     float64
	lastRefill float64

	minRate  float64
	lastFB   float64 // time of last feedback, for the no-feedback timer
	haveFB   bool
	lastSend float64 // time of last successful send
}

// InitialRTT is the RTT assumed before the first measurement.
const InitialRTT = 0.1

// NewSender creates a sender with the RFC initial rate of one packet
// per (assumed) RTT.
func NewSender(packetSize float64) *Sender {
	s := &Sender{
		PacketSize: packetSize,
		rtt:        InitialRTT,
		slowStart:  true,
	}
	s.minRate = packetSize / 64 // s / t_mbi, t_mbi = 64s
	s.rate = 2 * packetSize / s.rtt
	s.tokens = 2 * packetSize // allow the first packets immediately
	return s
}

// RTT returns the smoothed RTT estimate in seconds.
func (s *Sender) RTT() float64 { return s.rtt }

// nofeedback halves the rate for every no-feedback interval in which
// data was sent but no receiver report arrived (RFC 3448 §4.4), so
// flows to dead or partitioned receivers decay instead of transmitting
// forever. Intervals in which the sender was data-limited (sent
// nothing) do not decay the rate.
func (s *Sender) nofeedback(now float64) {
	if !s.haveFB {
		s.lastFB = now
		s.haveFB = true
		return
	}
	timeout := 4 * s.rtt
	if timeout < 0.5 {
		timeout = 0.5
	}
	for now-s.lastFB > timeout {
		if s.lastSend <= s.lastFB {
			// Idle interval: no data outstanding, nothing to conclude.
			s.lastFB = now
			return
		}
		s.rate /= 2
		if s.rate < s.minRate {
			s.rate = s.minRate
		}
		s.lastFB += timeout
	}
}

// refill adds tokens accrued since the last refill, capping the bucket
// so idle periods do not bank an arbitrary burst.
func (s *Sender) refill(now float64) {
	s.nofeedback(now)
	if now > s.lastRefill {
		s.tokens += s.rate * (now - s.lastRefill)
		s.lastRefill = now
	}
	burst := s.rate * 0.02 // 20ms of rate
	if burst < 2*s.PacketSize {
		burst = 2 * s.PacketSize
	}
	if s.tokens > burst {
		s.tokens = burst
	}
}

// TrySend implements Bullet's non-blocking senddata semantics: it
// succeeds (consuming budget) only if sending size bytes now stays
// within the TCP-friendly fair share; otherwise it fails and consumes
// nothing.
func (s *Sender) TrySend(now float64, size int) bool {
	s.refill(now)
	if s.tokens < float64(size) {
		return false
	}
	s.tokens -= float64(size)
	s.lastSend = now
	return true
}

// Feedback is the once-per-RTT receiver report.
type Feedback struct {
	P         float64 // loss event rate
	RecvRate  float64 // bytes/s received since last report
	RTTSample float64 // seconds; <0 if no valid sample
}

// OnFeedback updates the rate from a receiver report (RFC 3448 §4.3).
func (s *Sender) OnFeedback(now float64, fb Feedback) {
	s.lastFB = now
	s.haveFB = true
	if fb.RTTSample > 0 {
		if !s.haveRTT {
			s.rtt = fb.RTTSample
			s.haveRTT = true
		} else {
			s.rtt = 0.9*s.rtt + 0.1*fb.RTTSample
		}
	}
	if fb.P <= 0 {
		// Slow-start: double each feedback, bounded by twice the rate
		// the receiver actually absorbed (handles app-limited flows).
		s.slowStart = true
		limit := 2 * fb.RecvRate
		if limit < 2*s.PacketSize/s.rtt {
			limit = 2 * s.PacketSize / s.rtt
		}
		s.rate *= 2
		if s.rate > limit {
			s.rate = limit
		}
		if s.rate < s.minRate {
			s.rate = s.minRate
		}
		return
	}
	s.slowStart = false
	tRTO := 4 * s.rtt
	x := Rate(s.PacketSize, s.rtt, fb.P, tRTO)
	limit := 2 * fb.RecvRate
	if x > limit && limit > 0 {
		x = limit
	}
	if x < s.minRate {
		x = s.minRate
	}
	s.rate = x
}

// Receiver is the TFRC receiver half for one flow. It detects losses
// from gaps in the per-flow sequence space (the emulated network never
// reorders within a path), aggregates losses within one RTT into loss
// events, and produces periodic feedback.
type Receiver struct {
	hist       LossHistory
	nextSeq    uint64 // next expected flow sequence
	havePacket bool

	rtt            float64 // sender-communicated RTT estimate
	lossEventStart float64 // time of the first loss in the current event
	inLossEvent    bool

	bytesSinceFB  float64
	lastFBTime    float64
	lastTS        float64 // sender timestamp of most recent data packet
	lastArrival   float64 // local arrival time of that packet
	totalReceived float64
}

// NewReceiver creates a receiver; rttHint seeds loss-event aggregation
// before the sender communicates an estimate.
func NewReceiver(rttHint float64) *Receiver {
	if rttHint <= 0 {
		rttHint = InitialRTT
	}
	return &Receiver{rtt: rttHint, lastFBTime: -1}
}

// OnData processes an arriving data packet: flowSeq is the per-flow
// sequence number, ts the sender timestamp (seconds), senderRTT the
// sender's current RTT estimate (0 if unknown).
func (r *Receiver) OnData(now float64, flowSeq uint64, size int, ts, senderRTT float64) {
	if senderRTT > 0 {
		r.rtt = senderRTT
	}
	r.lastTS = ts
	r.lastArrival = now
	r.bytesSinceFB += float64(size)
	r.totalReceived++

	if !r.havePacket {
		r.havePacket = true
		r.nextSeq = flowSeq + 1
		r.hist.OnPacket()
		return
	}
	if flowSeq < r.nextSeq {
		return // duplicate/late; path FIFO makes this rare
	}
	lost := flowSeq - r.nextSeq
	r.nextSeq = flowSeq + 1
	if lost > 0 {
		if !r.inLossEvent || now-r.lossEventStart > r.rtt {
			// New loss event.
			first := r.hist.n == 0
			r.hist.OnLossEvent()
			if first {
				// Seed the first interval from the pre-loss receive rate.
				r.hist.SeedFirstInterval(r.totalReceived)
			}
			r.inLossEvent = true
			r.lossEventStart = now
		}
	}
	r.hist.OnPacket()
}

// P returns the current loss event rate estimate.
func (r *Receiver) P() float64 { return r.hist.P() }

// MakeFeedback builds the periodic report and resets the receive-rate
// window. It returns the feedback, the sender timestamp to echo for
// RTT measurement (echoTS < 0 when no packet has arrived yet), and the
// hold time — how long ago that packet arrived — which the sender must
// subtract from its RTT sample.
func (r *Receiver) MakeFeedback(now float64) (fb Feedback, echoTS, hold float64) {
	interval := now - r.lastFBTime
	if r.lastFBTime < 0 || interval <= 0 {
		interval = r.rtt
	}
	fb = Feedback{
		P:        r.hist.P(),
		RecvRate: r.bytesSinceFB / interval,
	}
	r.bytesSinceFB = 0
	r.lastFBTime = now
	if !r.havePacket {
		return fb, -1, 0
	}
	return fb, r.lastTS, now - r.lastArrival
}

// FeedbackInterval returns how long to wait before the next feedback:
// one RTT as currently estimated.
func (r *Receiver) FeedbackInterval() float64 { return r.rtt }
