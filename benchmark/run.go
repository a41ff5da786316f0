package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"bullet"
	"bullet/internal/netem"
	"bullet/internal/sim"
)

// A check is one correctness assertion on a run's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runResult is what one child process reports: every metric it could
// measure by name, the digest of its simulated outputs, its own checks
// and, for a traced run, the trace.
type runResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Digest  string             `json:"digest"`
	Checks  []check            `json:"checks"`
	Trace   *traceData         `json:"trace,omitempty"`
}

// traceData is the traced run's record, written to
// out/trace-<workload>.json.
type traceData struct {
	Run    string        `json:"run"`
	Spans  []span        `json:"spans"`
	SelfNS map[int]int64 `json:"self_ns"` // span id → duration minus child spans
	Slices []sliceSample `json:"slices"`
	// CPUSamples and CPUByLayer are the CPU profile of the run span
	// folded into layers: a layer's self time is its share of samples.
	CPUSamples      int64            `json:"cpu_samples"`
	CPUByLayer      map[string]int64 `json:"cpu_samples_by_layer"`
	CPUUnattributed int64            `json:"cpu_samples_unattributed"`
}

// sliceSample holds the counters of one virtual second of a traced
// run, as deltas over the slice (Pending and HeapInuseMB are levels at
// its end).
type sliceSample struct {
	VirtualS       float64 `json:"virtual_s"` // slice end
	WallS          float64 `json:"wall_s"`
	Events         uint64  `json:"events"`
	EventsPerS     float64 `json:"events_per_s"`
	Pending        int     `json:"pending"`
	DataBytesSent  uint64  `json:"data_bytes_sent"`
	DataBytesDeliv uint64  `json:"data_bytes_delivered"`
	ControlBytes   uint64  `json:"control_bytes"`
	Drops          uint64  `json:"drops"` // congestion + loss + link-down
	Rerouted       uint64  `json:"rerouted"`
	UsefulBytes    uint64  `json:"useful_bytes"`
	RawBytes       uint64  `json:"raw_bytes"`
	Mallocs        uint64  `json:"mallocs"`
	HeapInuseMB    float64 `json:"heap_inuse_mb"`
}

// runChild sets a workload up, runs it over its fixed virtual span and
// measures it. The timed span is World.Run alone. A traced run slices
// Run per virtual second, samples counters at the boundaries and takes
// a CPU profile; it must produce the digest of the untraced run.
func runChild(w workload, seed int64, stream bullet.Duration, traced bool) (*runResult, error) {
	runtime.GOMAXPROCS(benchProcs())
	var sp *spans
	if traced {
		sp = newSpans(w.name, seed)
	}
	b, err := w.build(seed, stream, sp)
	if err != nil {
		return nil, err
	}
	setup := time.Since(processStart)

	net := b.world.Network()
	col := b.dep.Collector()
	engines := distinctEngines(b.world)
	var before, after runtime.MemStats
	var profile bytes.Buffer
	var slices []sliceSample
	pendingPeak, heapPeak := 0, uint64(0)
	gcBefore := gcCPUSeconds()
	runtime.ReadMemStats(&before)

	var run time.Duration
	if !traced {
		start := time.Now()
		b.world.Run(b.until)
		run = time.Since(start)
	} else {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		endRun := sp.begin("run")
		start := time.Now()
		prev := counters{at: start, mallocs: before.Mallocs}
		for t := bullet.Second; t <= b.until; t += bullet.Second {
			endSlice := sp.begin("run.slice")
			b.world.Run(t)
			endSlice()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			st := net.Stats()
			cur := counters{at: time.Now(), events: net.RunLoad().TotalEvents(), stats: st,
				useful: col.Total(bullet.Useful), raw: col.Total(bullet.Raw), mallocs: ms.Mallocs}
			pending := 0
			for _, e := range engines {
				pending += e.Pending()
			}
			slices = append(slices, cur.since(prev, t, pending, ms.HeapInuse))
			pendingPeak, heapPeak = max(pendingPeak, pending), max(heapPeak, ms.HeapInuse)
			prev = cur
		}
		run = time.Since(start)
		endRun()
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	gcAfter := gcCPUSeconds()

	endReport := sp.begin("report")
	load := net.RunLoad()
	events := load.TotalEvents()
	st := net.Stats()
	runS := run.Seconds()
	useful, raw := col.Total(bullet.Useful), col.Total(bullet.Raw)
	perNode := nodeUsefulKbps(b)
	m := map[string]float64{
		"setup_s":               setup.Seconds(),
		"run_s":                 runS,
		"events_per_s":          float64(events) / runS,
		"peak_rss_mb":           peakRSSMB(&after),
		"allocs_per_kevent":     float64(after.Mallocs-before.Mallocs) / float64(events) * 1000,
		"alloc_bytes_per_event": float64(after.TotalAlloc-before.TotalAlloc) / float64(events),
		"useful_kbps":           col.MeanOver(b.from, b.until, bullet.Useful),
		"useful_kbps_p10":       percentile(perNode, 0.10),
		"dup_ratio":             col.DuplicateRatio(),
		"control_kbps":          float64(st.ControlBytes) * 8 / 1000 / float64(len(b.world.Participants())) / b.until.ToSeconds(),
		"net_delivered_frac":    ratio(st.DataBytesDelivered, st.DataBytesSent),

		"sim.events":                 float64(events),
		"netem.congestion_drop_frac": ratio(st.CongestionDrops, st.CongestionDrops+st.RandomLossDrops+st.LinkDownDrops+st.DeliveredPackets),
		"netem.loss_drop_frac":       ratio(st.RandomLossDrops, st.CongestionDrops+st.RandomLossDrops+st.LinkDownDrops+st.DeliveredPackets),
		"netem.linkdown_drops":       float64(st.LinkDownDrops),
		"netem.rerouted":             float64(st.ReroutedPackets),
		"netem.delivered_pkts":       float64(st.DeliveredPackets),
		"core.useful_frac":           ratio(useful, raw),
		"core.dup_ratio":             col.DuplicateRatio(),
		"gc.cpu_frac":                (gcAfter - gcBefore) / runS,
		"gc.cycles":                  float64(after.NumGC - before.NumGC),
	}
	shardMetrics(m, load, runS)

	res := &runResult{Metrics: m, Digest: digest(b, st, events)}
	var engineEvents uint64
	for _, e := range engines {
		engineEvents += e.Fired()
	}
	res.Checks = []check{
		{Name: "delivered<=sent", OK: st.DataBytesDelivered <= st.DataBytesSent,
			Detail: fmt.Sprintf("%d vs %d", st.DataBytesDelivered, st.DataBytesSent)},
		{Name: "useful<=raw", OK: useful <= raw, Detail: fmt.Sprintf("%d vs %d", useful, raw)},
		{Name: "engine-events==total-events", OK: engineEvents == events,
			Detail: fmt.Sprintf("%d vs %d", engineEvents, events)},
		{Name: "useful_kbps>0", OK: m["useful_kbps"] > 0},
		{Name: "shards-as-requested", OK: b.world.Shards() == max(w.shards, 1),
			Detail: fmt.Sprintf("%d vs %d", b.world.Shards(), max(w.shards, 1))},
	}
	endReport()

	if traced {
		m["sim.pending_peak"] = float64(pendingPeak)
		m["heap.peak_mb"] = float64(heapPeak) / (1 << 20)
		att, err := attributeCPU(profile.Bytes())
		if err != nil {
			return nil, err
		}
		for _, layer := range cpuLayers {
			m[layer+".cpu_frac"] = float64(att.byLayer[layer]) / float64(max(att.samples, 1))
		}
		for group, layers := range budgetGroups {
			var frac float64
			for _, layer := range layers {
				frac += m[layer+".cpu_frac"]
			}
			m[group+".ns_per_event"] = frac * runS * 1e9 / float64(events)
		}
		res.Trace = &traceData{Run: sp.run, Spans: sp.list, SelfNS: selfNS(sp.list), Slices: slices,
			CPUSamples: att.samples, CPUByLayer: att.byLayer, CPUUnattributed: att.unattributed}
	}
	return res, nil
}

// benchProcs is the GOMAXPROCS every run uses: the load is one
// in-process simulation sized for a 2-core machine.
func benchProcs() int { return min(runtime.NumCPU(), 2) }

// distinctEngines returns the global engine and every shard engine.
func distinctEngines(w *bullet.World) []*sim.Engine {
	net := w.Network()
	engines := []*sim.Engine{net.Engine()}
	seen := map[*sim.Engine]bool{net.Engine(): true}
	for _, c := range w.Participants() {
		if e, ok := net.SchedulerFor(c).(*sim.Engine); ok && !seen[e] {
			seen[e] = true
			engines = append(engines, e)
		}
	}
	return engines
}

// counters is one reading of the cumulative counters a traced run
// samples at slice boundaries.
type counters struct {
	at          time.Time
	events      uint64
	stats       netem.Stats
	useful, raw uint64
	mallocs     uint64
}

func (c counters) since(prev counters, end bullet.Time, pending int, heapInuse uint64) sliceSample {
	wall := c.at.Sub(prev.at).Seconds()
	drops := func(s netem.Stats) uint64 {
		return s.CongestionDrops + s.RandomLossDrops + s.LinkDownDrops
	}
	return sliceSample{
		VirtualS: end.ToSeconds(), WallS: wall,
		Events: c.events - prev.events, EventsPerS: float64(c.events-prev.events) / wall,
		Pending:        pending,
		DataBytesSent:  c.stats.DataBytesSent - prev.stats.DataBytesSent,
		DataBytesDeliv: c.stats.DataBytesDelivered - prev.stats.DataBytesDelivered,
		ControlBytes:   c.stats.ControlBytes - prev.stats.ControlBytes,
		Drops:          drops(c.stats) - drops(prev.stats),
		Rerouted:       c.stats.ReroutedPackets - prev.stats.ReroutedPackets,
		UsefulBytes:    c.useful - prev.useful, RawBytes: c.raw - prev.raw,
		Mallocs: c.mallocs - prev.mallocs, HeapInuseMB: float64(heapInuse) / (1 << 20),
	}
}

// shardMetrics adds the shard.* counters. A serial run is one shard
// that is always busy, which keeps the names defined on every workload;
// shard.speedup is filled in by the parent, which has both runs.
func shardMetrics(m map[string]float64, load netem.RunLoad, runS float64) {
	m["shard.k"], m["shard.busy_frac"], m["shard.stall_frac"] = 1, 1, 0
	m["shard.imbalance"], m["shard.global_events_frac"] = 1, 1
	k := len(load.Shards)
	if k == 0 {
		return
	}
	var busy int64
	var sum, most uint64
	for _, s := range load.Shards {
		busy += s.BusyNanos
		sum += s.Events
		most = max(most, s.Events)
	}
	m["shard.k"] = float64(k)
	m["shard.busy_frac"] = float64(busy) / 1e9 / (float64(k) * runS)
	m["shard.stall_frac"] = 1 - m["shard.busy_frac"]
	m["shard.imbalance"] = float64(most) * float64(k) / float64(sum)
	m["shard.global_events_frac"] = ratio(load.GlobalEvents, load.TotalEvents())
}

// nodeUsefulKbps returns the mean useful bandwidth over the measurement
// window of every receiver live at the end of the run.
func nodeUsefulKbps(b *built) []float64 {
	var out []float64
	for _, n := range b.dep.Nodes() {
		if n != b.tree.Root {
			out = append(out, b.dep.Collector().MeanOverNodes([]int{n}, b.from, b.until, bullet.Useful))
		}
	}
	return out
}

// percentile returns the p-quantile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digest hashes everything the simulation computed that a user could
// plot: the four bandwidth series, the emulator's counters and the
// event count. Host time never enters it.
func digest(b *built, st netem.Stats, events uint64) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	for _, k := range []bullet.Kind{bullet.Useful, bullet.Raw, bullet.Parent, bullet.Duplicate} {
		for _, p := range b.dep.Collector().Series(k) {
			put(math.Float64bits(p.T), math.Float64bits(p.Kbps), math.Float64bits(p.Std))
		}
	}
	put(st.DataBytesSent, st.DataBytesDelivered, st.ControlBytes, st.CongestionDrops,
		st.RandomLossDrops, st.LinkDownDrops, st.ReroutedPackets, st.DeliveredPackets, events)
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB(ms *runtime.MemStats) float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return float64(ms.Sys) / (1 << 20)
}

// gcCPUSeconds returns the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
