package core

import (
	"fmt"

	"bullet/internal/ransub"
	"bullet/internal/sim"
	"bullet/internal/workload"
)

// Config controls a Bullet deployment. The paper's operating point
// (§3) is fixed where the code uses it: 10-entry RanSub sets every 5 s
// (package ransub); a 5 s Bloom filter refresh (filterRefresh), peer
// evaluation every two epochs (evalInterval) and a 50% duplicate
// eviction threshold (duplicateThreshold); a 2,000-sequence recovery
// window (recoveryWindow) behind a 3% false-positive filter
// (bloomFPRate); a 10 ms send pump (pumpInterval); a freshness gate of
// refresh + 1 s (freshnessDelay); and the Figure 4 row partitioning
// across senders. Config holds only what runs vary.
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
	// TraceEvery samples every Nth stream sequence for link-stress
	// accounting (0 disables).
	TraceEvery uint64

	// Ablation switches (true in real Bullet).

	// DisjointSend enables the Figure 5 disjoint data send routine;
	// when false, parents try to send every packet to every child
	// (the Figure 10 "non-disjoint" ablation).
	DisjointSend bool
}

// DefaultConfig returns the paper's operating point for a given
// streaming rate.
func DefaultConfig(rateKbps float64) Config {
	return Config{
		StreamRateKbps: rateKbps,
		PacketSize:     1500,
		Duration:       300 * sim.Second,
		MaxSenders:     10,
		MaxReceivers:   10,
		RanSub:         ransub.DefaultConfig(),
		TraceEvery:     0,
		DisjointSend:   true,
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
	if c.Duration <= 0 {
		return fmt.Errorf("core: duration %v", c.Duration)
	}
	return nil
}
