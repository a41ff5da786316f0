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

func TestMultiRateSchedule(t *testing.T) {
	m := NewMultiRate(1500,
		RateStep{At: 60 * sim.Second, RateKbps: 1200},
		RateStep{At: 0, RateKbps: 600})
	if got := m.RateAt(10 * sim.Second); got != 600 {
		t.Errorf("RateAt(10s) = %v, want 600", got)
	}
	if got := m.RateAt(60 * sim.Second); got != 1200 {
		t.Errorf("RateAt(60s) = %v, want 1200", got)
	}
	m.SetRateAt(90*sim.Second, 300)
	if got := m.RateAt(100 * sim.Second); got != 300 {
		t.Errorf("RateAt(100s) after SetRateAt = %v, want 300", got)
	}
	size, gap, ok := m.Next(5*sim.Second, 0)
	if !ok || size != 1500 || gap != Interval(600, 1500) {
		t.Fatalf("Next = (%d, %d, %v)", size, gap, ok)
	}
}

// A zero-rate step pauses the stream until the next positive-rate
// step; only a schedule with no positive rate left ends it.
func TestMultiRatePauseAndResume(t *testing.T) {
	m := NewMultiRate(1500,
		RateStep{At: 0, RateKbps: 600},
		RateStep{At: 60 * sim.Second, RateKbps: 0},
		RateStep{At: 120 * sim.Second, RateKbps: 600})
	size, gap, ok := m.Next(70*sim.Second, 100)
	if !ok || size != 0 || gap != 50*sim.Second {
		t.Fatalf("paused Next = (%d, %d, %v), want (0, 50s, true)", size, gap, ok)
	}
	if size, _, ok := m.Next(120*sim.Second, 100); !ok || size != 1500 {
		t.Fatalf("resumed Next = (%d, _, %v), want (1500, _, true)", size, ok)
	}
	// Trailing zero rate with nothing scheduled after it ends the
	// stream.
	tail := NewMultiRate(1500,
		RateStep{At: 0, RateKbps: 600},
		RateStep{At: 60 * sim.Second, RateKbps: 0})
	if _, _, ok := tail.Next(61*sim.Second, 100); ok {
		t.Fatal("trailing zero-rate schedule should end the stream")
	}
	// End-to-end through the pump: packets stop during the pause and
	// resume after it.
	eng := sim.NewEngine(1)
	var times []sim.Time
	m2 := NewMultiRate(1500,
		RateStep{At: 0, RateKbps: 600},
		RateStep{At: 1 * sim.Second, RateKbps: 0},
		RateStep{At: 3 * sim.Second, RateKbps: 600})
	Pump(eng, m2, 0,
		func() bool { return eng.Now() >= 4*sim.Second },
		func(seq uint64, size int) { times = append(times, eng.Now()) })
	eng.Run(10 * sim.Second)
	var paused, resumed int
	for _, at := range times {
		if at >= 1*sim.Second && at < 3*sim.Second {
			paused++
		}
		if at >= 3*sim.Second {
			resumed++
		}
	}
	if paused != 0 {
		t.Errorf("%d emissions during the pause", paused)
	}
	if resumed == 0 {
		t.Error("no emissions after the schedule resumed")
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

// TestPumpFiniteSource: a source whose Next returns ok=false ends the
// stream for good, even though stop never fires — here a MultiRate
// whose last step is rate 0 with no resume.
func TestPumpFiniteSource(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	src := NewMultiRate(1500,
		RateStep{At: 0, RateKbps: 600},
		RateStep{At: 60 * sim.Millisecond, RateKbps: 0})
	Pump(eng, src, 0,
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
