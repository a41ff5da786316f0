// Package transport provides per-node endpoints with TFRC-paced data
// flows and reliable small control messages over the emulated network.
// It plays the role MACEDON's messaging substrate played for the
// paper's implementations: every protocol in this repository (Bullet,
// tree streaming, gossip, anti-entropy) moves bytes exclusively through
// this layer, so comparisons reflect algorithmic differences.
package transport

import (
	"fmt"
	"math"

	"bullet/internal/netem"
	"bullet/internal/sim"
	"bullet/internal/tfrc"
)

// FeedbackSize is the wire size of a TFRC feedback report.
const FeedbackSize = 48

// DataHeaderSize is the per-packet transport header (flow id, flow
// sequence, timestamp, RTT echo), added to application payload size.
const DataHeaderSize = 24

type flowKey struct {
	src int
	id  uint32
}

// Data packets carry their transport framing (flow id, flow sequence,
// timestamp, RTT echo) inline in netem.Packet fields — no per-packet
// payload allocation on the send path. A TFRC feedback report rides in
// the same fields: feedbackMsg, a zero-size marker, is its Payload,
// and feedbackPacket / feedbackOf are the only code that knows which
// field holds what.
type feedbackMsg struct{}

func feedbackPacket(to int, flowID uint32, fb tfrc.Feedback) netem.Packet {
	return netem.Packet{
		Size: FeedbackSize, To: to, Payload: feedbackMsg{},
		FlowID: flowID, TS: fb.P, RTT: fb.RTTSample, FlowSeq: math.Float64bits(fb.RecvRate),
	}
}

func feedbackOf(pkt netem.Packet) tfrc.Feedback {
	return tfrc.Feedback{P: pkt.TS, RTTSample: pkt.RTT, RecvRate: math.Float64frombits(pkt.FlowSeq)}
}

type closeMsg struct {
	flowID uint32
}

// controller is the congestion-control half of a sending flow: the
// TFRC sender, or the TCP-like AIMD reference of the friendliness test.
type controller interface {
	// TrySend consumes budget for size bytes if allowed right now.
	TrySend(now float64, size int) bool
	// OnFeedback applies a receiver report.
	OnFeedback(now float64, fb tfrc.Feedback)
	// RTT returns the smoothed RTT estimate in seconds.
	RTT() float64
}

// DataHandler is invoked on arrival of an application data packet.
type DataHandler func(from int, seq uint64, size int)

// ControlHandler is invoked on arrival of a protocol control message.
type ControlHandler func(from int, payload any, size int)

// Endpoint is one node's attachment to the network. It owns no pool:
// data headers and TFRC reports travel inside the packet value.
type Endpoint struct {
	net  *netem.Network
	eng  *sim.Engine // the node's shard engine; all timers/clock reads
	node int

	nextFlow  uint32
	sendFlows map[uint32]*Flow
	recvFlows map[flowKey]*recvFlow

	onData    DataHandler
	onControl ControlHandler

	failed bool

	// Protocol control accounting: messages sent via SendControl only,
	// not transport-internal control (TFRC feedback, flow teardown),
	// mirroring how the paper reports "Bullet mesh maintenance"
	// overhead.
	controlBytesIn  uint64
	controlBytesOut uint64
}

// NewEndpoint attaches node to the network and registers its handler.
func NewEndpoint(net *netem.Network, node int) *Endpoint {
	ep := &Endpoint{
		net:       net,
		eng:       net.SchedulerFor(node).(*sim.Engine),
		node:      node,
		sendFlows: make(map[uint32]*Flow),
		recvFlows: make(map[flowKey]*recvFlow),
	}
	net.Register(node, ep.onPacket)
	return ep
}

// Node returns the graph node this endpoint is attached to.
func (ep *Endpoint) Node() int { return ep.node }

// Scheduler returns the engine executing this node's events: the
// node's shard engine in a sharded run, the global engine otherwise.
// Protocol code must schedule all node-local timers through it, and
// only for its own node.
func (ep *Endpoint) Scheduler() *sim.Engine { return ep.eng }

// OnData sets the application data callback.
func (ep *Endpoint) OnData(h DataHandler) { ep.onData = h }

// OnControl sets the protocol control callback.
func (ep *Endpoint) OnControl(h ControlHandler) { ep.onControl = h }

// Fail simulates a node crash: the endpoint stops receiving, all flows
// stop sending, and all timers become inert.
func (ep *Endpoint) Fail() {
	ep.failed = true
	ep.net.Unregister(ep.node)
	for _, f := range ep.sendFlows {
		f.closed = true
	}
	for _, rf := range ep.recvFlows {
		rf.stop()
	}
}

// Failed reports whether Fail was called (and Restart has not).
func (ep *Endpoint) Failed() bool { return ep.failed }

// Restart brings a failed endpoint back: it re-registers with the
// network and resumes receiving. Send flows closed by Fail stay
// closed — a restarted protocol instance opens fresh ones — while
// receive flows resume feedback as data arrives. Restarting a live
// endpoint is a no-op.
func (ep *Endpoint) Restart() {
	if !ep.failed {
		return
	}
	ep.failed = false
	ep.net.Register(ep.node, ep.onPacket)
}

// SendControl transmits a reliable control message of the given wire
// size to another node.
func (ep *Endpoint) SendControl(to int, payload any, size int) {
	if ep.failed {
		return
	}
	ep.controlBytesOut += uint64(size)
	ep.net.Send(netem.Packet{
		Kind: netem.Control, Size: size,
		From: ep.node, To: to, Payload: payload,
	})
}

// ControlBytes returns (in, out) protocol control byte counters.
func (ep *Endpoint) ControlBytes() (in, out uint64) {
	return ep.controlBytesIn, ep.controlBytesOut
}

// sendTransportControl transmits pkt (TFRC feedback, flow teardown) as
// transport-internal Control traffic from this node.
func (ep *Endpoint) sendTransportControl(pkt netem.Packet) {
	if ep.failed {
		return
	}
	pkt.Kind, pkt.From = netem.Control, ep.node
	ep.net.Send(pkt)
}

// Flow is the sending half of a TFRC-paced unidirectional data flow.
type Flow struct {
	ep     *Endpoint
	id     uint32
	to     int
	snd    controller
	seq    uint64
	closed bool

	// TraceEvery, when nonzero, marks every TraceEvery'th stream
	// sequence for link-stress tracing.
	TraceEvery uint64
}

// OpenFlow creates a TFRC-paced flow from this endpoint to node `to`,
// with packets of nominal size packetSize.
func (ep *Endpoint) OpenFlow(to int, packetSize int) (*Flow, error) {
	return ep.openFlow(to, tfrc.NewSender(float64(packetSize)))
}

func (ep *Endpoint) openFlow(to int, cc controller) (*Flow, error) {
	if to == ep.node {
		return nil, fmt.Errorf("transport: flow to self (node %d)", to)
	}
	ep.nextFlow++
	f := &Flow{ep: ep, id: ep.nextFlow, to: to, snd: cc}
	ep.sendFlows[f.id] = f
	return f, nil
}

// TrySend attempts to transmit one application packet carrying stream
// sequence seq with payload size bytes. It returns false without side
// effects if sending now would exceed the TCP-friendly rate — Bullet's
// non-blocking senddata semantics.
func (f *Flow) TrySend(seq uint64, size int) bool {
	if f.closed || f.ep.failed {
		return false
	}
	now := f.ep.eng.Now().ToSeconds()
	wire := size + DataHeaderSize
	if !f.snd.TrySend(now, wire) {
		return false
	}
	trace := f.TraceEvery > 0 && seq%f.TraceEvery == 0
	f.ep.net.Send(netem.Packet{
		Kind: netem.Data, Seq: seq, Size: wire,
		From: f.ep.node, To: f.to, Trace: trace,
		FlowID: f.id, FlowSeq: f.seq, TS: now, RTT: f.snd.RTT(),
	})
	f.seq++
	return true
}

// Close shuts down the flow and tells the receiver to stop feedback.
func (f *Flow) Close() {
	if f.closed {
		return
	}
	f.closed = true
	delete(f.ep.sendFlows, f.id)
	f.ep.sendTransportControl(netem.Packet{Size: 16, To: f.to, Payload: &closeMsg{flowID: f.id}})
}

// recvFlow is the receiving half, created on first data arrival.
type recvFlow struct {
	ep      *Endpoint
	key     flowKey
	rcv     *tfrc.Receiver
	fbTimer sim.Timer
	idle    int
	// fbFn caches the sendFeedback method value so the per-RTT feedback
	// rescheduling allocates no closure.
	fbFn func()
}

func (rf *recvFlow) stop() {
	rf.fbTimer.Cancel()
	rf.fbTimer = sim.Timer{}
}

func (rf *recvFlow) scheduleFeedback() {
	d := sim.Seconds(rf.rcv.FeedbackInterval())
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	rf.fbTimer = rf.ep.eng.After(d, rf.fbFn)
}

func (rf *recvFlow) sendFeedback() {
	if rf.ep.failed {
		return
	}
	now := rf.ep.eng.Now().ToSeconds()
	fb, echo, hold := rf.rcv.MakeFeedback(now)
	if fb.RecvRate == 0 {
		rf.idle++
		if rf.idle > 20 {
			// Dormant flow: stop feedback until data arrives again.
			rf.fbTimer = sim.Timer{}
			return
		}
	} else {
		rf.idle = 0
	}
	sample := -1.0
	if echo >= 0 {
		sample = now - echo - hold
		if sample <= 0 {
			sample = -1
		}
	}
	fb.RTTSample = sample
	rf.ep.sendTransportControl(feedbackPacket(rf.key.src, rf.key.id, fb))
	rf.scheduleFeedback()
}

// onPacket is the netem delivery handler.
func (ep *Endpoint) onPacket(pkt netem.Packet) {
	if ep.failed {
		return
	}
	if pkt.Kind == netem.Data {
		key := flowKey{src: pkt.From, id: pkt.FlowID}
		rf := ep.recvFlows[key]
		if rf == nil {
			rf = &recvFlow{ep: ep, key: key, rcv: tfrc.NewReceiver(pkt.RTT)}
			rf.fbFn = rf.sendFeedback
			ep.recvFlows[key] = rf
		}
		now := ep.eng.Now().ToSeconds()
		rf.rcv.OnData(now, pkt.FlowSeq, pkt.Size, pkt.TS, pkt.RTT)
		if rf.fbTimer.Stopped() {
			rf.idle = 0
			rf.scheduleFeedback()
		}
		if ep.onData != nil {
			ep.onData(pkt.From, pkt.Seq, pkt.Size-DataHeaderSize)
		}
		return
	}
	switch m := pkt.Payload.(type) {
	case feedbackMsg:
		if f, ok := ep.sendFlows[pkt.FlowID]; ok {
			f.snd.OnFeedback(ep.eng.Now().ToSeconds(), feedbackOf(pkt))
		}
	case *closeMsg:
		key := flowKey{src: pkt.From, id: m.flowID}
		if rf, ok := ep.recvFlows[key]; ok {
			rf.stop()
			delete(ep.recvFlows, key)
		}
	default:
		ep.controlBytesIn += uint64(pkt.Size)
		if ep.onControl != nil {
			ep.onControl(pkt.From, pkt.Payload, pkt.Size)
		}
	}
}
