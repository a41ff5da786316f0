package workload

import (
	"testing"

	"bullet/internal/sim"
)

// legacyInterval is the exact float64 expression each protocol's
// private pump used before this package existed (core.scheduleSource,
// the streamer/gossip/anti-entropy source pumps). Interval must stay
// bit-identical to it forever: golden traces depend on the rounding.
func legacyInterval(rateKbps float64, packetSize int) sim.Duration {
	bytesPerSec := rateKbps * 1000 / 8
	interval := sim.Duration(float64(packetSize) / bytesPerSec * float64(sim.Second))
	if interval < sim.Microsecond {
		interval = sim.Microsecond
	}
	return interval
}

func TestIntervalPinnedValues(t *testing.T) {
	cases := []struct {
		rateKbps float64
		size     int
		want     sim.Duration
	}{
		// 600 Kbps / 1500 B: the stock experiment configuration —
		// exactly 20 ms, no rounding.
		{600, 1500, 20 * sim.Millisecond},
		// 900 Kbps / 1500 B: Figure 11's rate — 13.333... ms truncates.
		{900, 1500, 13_333_333},
		// 666 Kbps / 1500 B: non-terminating division truncates.
		{666, 1500, 18_018_018},
		// 800 Kbps / 1400 B: exactly 14 ms.
		{800, 1400, 14 * sim.Millisecond},
		// Absurd rate: clamped to the emulator's 1 µs floor.
		{1e9, 1500, sim.Microsecond},
	}
	for _, c := range cases {
		if got := Interval(c.rateKbps, c.size); got != c.want {
			t.Errorf("Interval(%v, %d) = %d, want %d", c.rateKbps, c.size, got, c.want)
		}
	}
}

// TestIntervalMatchesLegacyPumps sweeps the configuration space and
// requires bit-identical agreement with the four retired private
// conversions — the rounding-stability contract.
func TestIntervalMatchesLegacyPumps(t *testing.T) {
	rates := []float64{8, 56, 100, 300, 473.5, 600, 666, 900, 1200, 5000, 1e6, 3e9}
	sizes := []int{64, 512, 1000, 1400, 1500, 9000}
	for _, r := range rates {
		for _, s := range sizes {
			if got, want := Interval(r, s), legacyInterval(r, s); got != want {
				t.Fatalf("Interval(%v, %d) = %d, legacy pump computed %d", r, s, got, want)
			}
		}
	}
}

func TestCBRNext(t *testing.T) {
	src := CBR{RateKbps: 600, PacketSize: 1500}
	for seq := uint64(0); seq < 3; seq++ {
		size, gap, ok := src.Next(sim.Time(seq)*20*sim.Millisecond, seq)
		if !ok || size != 1500 || gap != 20*sim.Millisecond {
			t.Fatalf("CBR.Next(seq=%d) = (%d, %d, %v), want (1500, 20ms, true)", seq, size, gap, ok)
		}
	}
}

func TestVBROnOffPhases(t *testing.T) {
	src := VBR{HighKbps: 800, LowKbps: 0, PacketSize: 1000,
		Period: 10 * sim.Second, Duty: 0.5, Phase: 5 * sim.Second}
	// On phase: 5s..10s after Phase.
	size, gap, ok := src.Next(6*sim.Second, 0)
	if !ok || size != 1000 || gap != Interval(800, 1000) {
		t.Fatalf("on-phase Next = (%d, %d, %v)", size, gap, ok)
	}
	// Off phase with LowKbps=0: silent until the next cycle.
	size, gap, ok = src.Next(12*sim.Second, 10)
	if !ok || size != 0 || gap != 3*sim.Second {
		t.Fatalf("off-phase Next = (%d, %d, %v), want (0, 3s, true)", size, gap, ok)
	}
	// Off phase with a low rate emits at the low rate.
	slow := src
	slow.LowKbps = 100
	size, gap, ok = slow.Next(12*sim.Second, 10)
	if !ok || size != 1000 || gap != Interval(100, 1000) {
		t.Fatalf("low-rate off-phase Next = (%d, %d, %v)", size, gap, ok)
	}
}

// Target is ceil((1+ε)·K) with ε = 0.15, and the rateless source has
// no cap: only the stream duration ends it.
func TestFileTargetAndCap(t *testing.T) {
	f := File{RateKbps: 600, PacketSize: 1500, K: 1000}
	if got := f.Target(); got != 1150 {
		t.Errorf("Target() = %d, want 1150", got)
	}
	if got := (File{K: 100}).Target(); got != 115 {
		t.Errorf("Target() = %d, want 115", got)
	}
	if _, _, ok := f.Next(0, 1<<40); !ok {
		t.Error("File.Next ended the stream")
	}
}

// TestPumpMatchesLegacyLoop drives a CBR source through Pump and
// checks the emission schedule is exactly the legacy pump's: first
// packet at start, one every interval, none at or beyond the stop
// condition.
func TestPumpMatchesLegacyLoop(t *testing.T) {
	eng := sim.NewEngine(1)
	var emissions []sim.Time
	var seqs []uint64
	start := 5 * sim.Second
	end := 5*sim.Second + 100*sim.Millisecond // 5 packets at 20 ms
	Pump(eng, CBR{RateKbps: 600, PacketSize: 1500}, start,
		func() bool { return eng.Now() >= end },
		func(seq uint64, size int) {
			if size != 1500 {
				t.Fatalf("size = %d", size)
			}
			emissions = append(emissions, eng.Now())
			seqs = append(seqs, seq)
		})
	eng.Run(20 * sim.Second)
	if len(emissions) != 5 {
		t.Fatalf("got %d emissions, want 5", len(emissions))
	}
	for i, at := range emissions {
		want := start + sim.Duration(i)*20*sim.Millisecond
		if at != want {
			t.Errorf("emission %d at %d, want %d", i, at, want)
		}
		if seqs[i] != uint64(i) {
			t.Errorf("emission %d carries seq %d", i, seqs[i])
		}
	}
}

// endsAt is a 600 Kbps, 1500-byte source whose Next reports ok=false
// from end onward.
type endsAt struct{ end sim.Time }

func (endsAt) Name() string { return "ends-at" }

func (e endsAt) Next(now sim.Time, seq uint64) (int, sim.Duration, bool) {
	if now >= e.end {
		return 0, 0, false
	}
	return 1500, Interval(600, 1500), true
}

// TestPumpFiniteSource: a source whose Next returns ok=false ends the
// stream for good, even though stop never fires.
func TestPumpFiniteSource(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	Pump(eng, endsAt{end: 60 * sim.Millisecond}, 0,
		func() bool { return false },
		func(seq uint64, size int) { n++ })
	eng.Run(10 * sim.Second)
	if n != 3 {
		t.Fatalf("finite source emitted %d packets, want 3", n)
	}
}

// TestPumpSilentEmission: a size-0 Next waits without consuming a
// sequence number (the VBR off phase).
func TestPumpSilentEmission(t *testing.T) {
	eng := sim.NewEngine(1)
	src := VBR{HighKbps: 600, LowKbps: 0, PacketSize: 1500,
		Period: 2 * sim.Second, Duty: 0.5}
	var seqs []uint64
	var last sim.Time
	Pump(eng, src, 0,
		func() bool { return eng.Now() >= 4*sim.Second },
		func(seq uint64, size int) { seqs = append(seqs, seq); last = eng.Now() })
	eng.Run(10 * sim.Second)
	// Two on-phases of 1 s at 20 ms intervals: 50 packets each; the
	// off phases emit nothing and sequence numbers stay contiguous.
	if len(seqs) != 100 {
		t.Fatalf("got %d emissions, want 100", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("emission %d carries seq %d: silence must not consume seqs", i, s)
		}
	}
	// The second on-phase spans 2s..3s; its last packet goes at 2.98s.
	if want := 2*sim.Second + 980*sim.Millisecond; last != want {
		t.Errorf("last emission at %d, want %d", last, want)
	}
}
