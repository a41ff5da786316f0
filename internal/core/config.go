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
	// Stream is the source's stream: rate, packet size, window (RanSub
	// runs from 0 whatever the Start) and workload.
	workload.Stream

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
		Stream:       workload.Stream{RateKbps: rateKbps, PacketSize: 1500, Duration: 300 * sim.Second},
		MaxSenders:   10,
		MaxReceivers: 10,
		RanSub:       ransub.DefaultConfig(),
		TraceEvery:   0,
		DisjointSend: true,
	}
}

// Validate fills the mesh defaults and rejects impossible settings;
// the stream's rate and packet size are member.Roster.Init's to check.
func (c *Config) Validate() error {
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
