package core

import (
	"fmt"

	"bullet/internal/ransub"
	"bullet/internal/sim"
	"bullet/internal/workload"
)

// Config controls a Bullet deployment. Defaults mirror the paper's
// implementation (§3): 10-entry RanSub sets every 5 s, at most 10
// senders and 10 receivers per node, 5 s Bloom filter refresh, peer
// evaluation every few RanSub epochs, 50% duplicate eviction threshold.
type Config struct {
	// StreamRateKbps is the source's target streaming rate.
	StreamRateKbps float64
	// PacketSize is the application payload per packet (bytes).
	PacketSize int
	// Workload overrides the default constant-bit-rate source: packet
	// generation (sequence, size, emission time) is delegated to it.
	// nil streams CBR at StreamRateKbps/PacketSize — byte-identical to
	// the pre-workload-layer pump.
	Workload workload.Source
	// Start is when the source begins streaming (RanSub runs from 0).
	Start sim.Time
	// Duration is how long the source streams.
	Duration sim.Duration

	// MaxSenders bounds the peers a node receives from (default 10).
	MaxSenders int
	// MaxReceivers bounds the peers a node sends to (default 10).
	MaxReceivers int
	// RanSub configures the underlying random-subset service.
	RanSub ransub.Config
	// FilterRefresh is how often receivers re-send Bloom filters and
	// ranges to their senders (paper default 5 s).
	FilterRefresh sim.Duration
	// EvalInterval is how often peering relationships are re-evaluated
	// ("every few RanSub epochs"; default 2 epochs).
	EvalInterval sim.Duration
	// DuplicateThreshold is the duplicate fraction above which a
	// sender is dropped (default 0.5).
	DuplicateThreshold float64
	// RecoveryWindow is how many recent sequence numbers a node keeps
	// recoverable (working set + Bloom filter population bound).
	RecoveryWindow uint64
	// BloomFPRate is the target false-positive rate for the working
	// set filter sized at RecoveryWindow elements.
	BloomFPRate float64
	// PumpInterval is how often per-peer send queues are drained.
	PumpInterval sim.Duration
	// FreshnessDelay gates serving packets *beyond* a receiver's
	// advertised High: a peer serves such fresh packets only after
	// holding them this long, giving the receiver's parent stream
	// first chance and avoiding duplicate races. Holes within the
	// advertised (Low, High) range are served immediately. Defaults to
	// FilterRefresh + 1s.
	FreshnessDelay sim.Duration
	// TraceEvery samples every Nth stream sequence for link-stress
	// accounting (0 disables).
	TraceEvery uint64

	// Ablation switches (all true in real Bullet).

	// DisjointSend enables the Figure 5 disjoint data send routine;
	// when false, parents try to send every packet to every child
	// (the Figure 10 "non-disjoint" ablation).
	DisjointSend bool
	// ModRows enables the Figure 4 sequence-matrix row partitioning
	// across senders; when false, senders serve the whole range.
	ModRows bool
}

// DefaultConfig returns the paper's operating point for a given
// streaming rate.
func DefaultConfig(rateKbps float64) Config {
	return Config{
		StreamRateKbps:     rateKbps,
		PacketSize:         1500,
		Duration:           300 * sim.Second,
		MaxSenders:         10,
		MaxReceivers:       10,
		RanSub:             ransub.DefaultConfig(),
		FilterRefresh:      5 * sim.Second,
		EvalInterval:       10 * sim.Second,
		DuplicateThreshold: 0.5,
		RecoveryWindow:     2000,
		BloomFPRate:        0.03,
		PumpInterval:       10 * sim.Millisecond,
		TraceEvery:         0,
		DisjointSend:       true,
		ModRows:            true,
	}
}

// Validate fills defaults and rejects impossible settings.
func (c *Config) Validate() error {
	if c.Workload == nil && c.StreamRateKbps <= 0 {
		return fmt.Errorf("core: stream rate %v Kbps", c.StreamRateKbps)
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 1500
	}
	if c.MaxSenders <= 0 {
		c.MaxSenders = 10
	}
	if c.MaxReceivers <= 0 {
		c.MaxReceivers = 10
	}
	if c.FilterRefresh <= 0 {
		c.FilterRefresh = 5 * sim.Second
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 10 * sim.Second
	}
	if c.DuplicateThreshold <= 0 || c.DuplicateThreshold > 1 {
		c.DuplicateThreshold = 0.5
	}
	if c.RecoveryWindow == 0 {
		c.RecoveryWindow = 2000
	}
	if c.BloomFPRate <= 0 || c.BloomFPRate >= 1 {
		c.BloomFPRate = 0.03
	}
	if c.PumpInterval <= 0 {
		c.PumpInterval = 10 * sim.Millisecond
	}
	if c.FreshnessDelay <= 0 {
		c.FreshnessDelay = c.FilterRefresh + sim.Second
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: duration %v", c.Duration)
	}
	return nil
}
