package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bullet"
	"bullet/internal/arena"
	"bullet/internal/bloom"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/nodeset"
	"bullet/internal/overlay"
	"bullet/internal/ransub"
	"bullet/internal/sim"
	"bullet/internal/sketch"
	"bullet/internal/tfrc"
	"bullet/internal/topology"
	"bullet/internal/transport"
	"bullet/internal/workset"
)

// Probes time calls into each layer's public functions from outside.
// Every probe reports the median over probeBatches batches, so one
// descheduled batch does not move it. Probes that depend on the input
// (netem, topology, overlay, metrics) use the workload's own topology,
// participants and tree, generated from the same seed.

const probeBatches = 5

// sink keeps probe results observable so the compiler cannot drop the
// measured calls.
var sink uint64

// nsPerOp runs probeBatches batches of n calls of op and returns the
// median nanoseconds per call. before, if not nil, prepares a batch
// outside the timed span.
func nsPerOp(n int, before func(), op func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		if before != nil {
			before()
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// secondsPerCall times whole calls of a set-up function: at least one,
// then more until probeBatches calls or one second of calls is spent.
func secondsPerCall(call func()) float64 {
	var took []float64
	var total time.Duration
	for len(took) == 0 || (len(took) < probeBatches && total < time.Second) {
		start := time.Now()
		call()
		d := time.Since(start)
		total += d
		took = append(took, d.Seconds())
	}
	return median(took)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Calls per batch of the cheap probes: enough that a batch takes
// milliseconds, fewer at the test scale.
const (
	fullProbeOps  = 200_000
	quickProbeOps = 4_000
)

// runProbes measures every (P) per-layer metric for workload w, with
// ops calls per batch of the cheap probes.
func runProbes(w workload, seed int64, ops int) (map[string]float64, error) {
	m := make(map[string]float64)
	probeSim(m, ops)
	probeStructures(m, ops)
	probeTFRC(m, ops)
	if err := probeTransport(m, ops/10); err != nil {
		return nil, err
	}
	if err := probeInputs(m, w, seed, ops); err != nil {
		return nil, err
	}
	return m, nil
}

// lcg is a cheap deterministic generator for probe operands.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

// probeSim times the event queue with the hold model: a fixed
// population of pending events, each of which schedules its successor
// when it fires, so every dispatch is paired with one Schedule.
func probeSim(m map[string]float64, ops int) {
	const population = 2000
	fires := 2 * ops
	hold := func(lo, hi sim.Duration) float64 {
		return nsPerOp(1, nil, func(int) {
			eng := sim.NewEngine(1)
			rng := lcg(1)
			fired := 0
			var fn func()
			fn = func() {
				if fired++; fired <= fires-population {
					eng.Schedule(eng.Now()+lo+sim.Duration(rng.next())%(hi-lo), fn)
				}
			}
			for i := 0; i < population; i++ {
				eng.Schedule(lo+sim.Duration(rng.next())%(hi-lo), fn)
			}
			eng.Run(sim.Time(1) << 60)
		}) / float64(fires)
	}
	// Deadlines 1–100 ms ahead stay in the calendar ring; 0.2–2 s
	// ahead go through the overflow heap and migrate.
	m["sim.push_pop_ring_ns"] = hold(sim.Millisecond, 100*sim.Millisecond)
	m["sim.push_pop_far_ns"] = hold(200*sim.Millisecond, 2*sim.Second)

	m["sim.timer_rearm_ns"] = nsPerOp(1, nil, func(int) {
		eng := sim.NewEngine(1)
		for i := 0; i < population; i++ {
			eng.Every(10*sim.Millisecond+sim.Duration(i), func() { sink++ })
		}
		eng.Run(sim.Duration(fires/population) * 10 * sim.Millisecond)
	}) / float64(fires)

	eng := sim.NewEngine(1)
	m["sim.cancel_ns"] = nsPerOp(ops/2, func() { eng.Run(eng.Now() + sim.Second) }, func(int) {
		eng.After(50*sim.Millisecond, func() { sink++ }).Cancel()
	})
}

// probeStructures times the protocol handler's data structures at the
// sizes core uses them: a 2000-sequence recovery window.
func probeStructures(m map[string]float64, n int) {
	const window = 2000

	filter := bloom.NewForCapacity(window, 0.03)
	m["bloom.add_ns"] = nsPerOp(n, filter.Reset, func(i int) { filter.Add(uint64(i % window)) })
	m["bloom.contains_ns"] = nsPerOp(n, nil, func(i int) {
		if filter.Contains(uint64(i % (2 * window))) {
			sink++
		}
	})

	perms := sketch.NewPermutations(sketch.DefaultEntries, 1)
	a, b := sketch.NewTicket(perms), sketch.NewTicket(perms)
	m["sketch.add_ns"] = nsPerOp(n/10, a.Reset, func(i int) { a.Add(uint64(i)) })
	for i := 0; i < window; i++ {
		b.Add(uint64(i + window/2))
	}
	m["sketch.resemblance_ns"] = nsPerOp(n/10, nil, func(int) { sink += uint64(sketch.Resemblance(a, b) * 100) })

	rng := rand.New(rand.NewSource(1))
	groups := make([]ransub.Group, 4)
	for g := range groups {
		groups[g].Population = 10 * (g + 1)
		for e := 0; e < 10; e++ {
			groups[g].Entries = append(groups[g].Entries, ransub.Entry{Node: g*10 + e, Ticket: a})
		}
	}
	m["ransub.compact_ns"] = nsPerOp(n/20, nil, func(int) { sink += uint64(len(ransub.Compact(rng, 10, groups))) })

	var ws *workset.Set
	m["workset.add_ns"] = nsPerOp(n, func() { ws = workset.New() }, func(i int) {
		ws.Add(uint64(i))
		if i%window == window-1 {
			ws.TrimBelow(uint64(i - window/2))
		}
	})
	m["workset.forrange_ns"] = nsPerOp(n/window, nil, func(int) {
		ws.ForRange(ws.Low(), ws.High()+1, func(uint64) bool { sink++; return true })
	}) / float64(ws.Len())

	sw := nodeset.NewSeqWindow()
	m["seqwindow.set_get_ns"] = nsPerOp(n, sw.Clear, func(i int) {
		sw.Set(uint64(i%window), sim.Time(i))
		if _, ok := sw.Get(uint64((i + window/2) % window)); ok {
			sink++
		}
	})
	m["seqwindow.delete_older_ns"] = nsPerOp(n/window, func() {
		for i := 0; i < window; i++ {
			sw.Set(uint64(i), sim.Time(i))
		}
	}, func(int) { sw.DeleteOlder(window / 2) }) / (window / 2)
	sw.Release()

	var pool arena.Arena[[8]uint64]
	held := make([]*[8]uint64, 64)
	m["arena.getput_ns"] = nsPerOp(n, nil, func(i int) {
		if p := held[i%len(held)]; p != nil {
			pool.Put(p)
		}
		held[i%len(held)] = pool.Get()
	})

	var table nodeset.Table[*int]
	for id := 0; id < 20_000; id += 7 {
		table.Put(id, new(int))
	}
	m["nodeset.table_at_ns"] = nsPerOp(n, nil, func(i int) {
		if table.At(i%20_000) != nil {
			sink++
		}
	})
}

// probeTFRC times the congestion-control arithmetic on its own.
func probeTFRC(m map[string]float64, n int) {
	rcv := tfrc.NewReceiver(0.05)
	m["tfrc.ondata_ns"] = nsPerOp(n, nil, func(i int) {
		now := float64(i) * 1e-3
		rcv.OnData(now, uint64(i), 1500, now-0.02, 0.05)
	})
	snd := tfrc.NewSender(1500)
	m["tfrc.onfeedback_ns"] = nsPerOp(n, nil, func(i int) {
		snd.OnFeedback(float64(i)*0.05, tfrc.Feedback{P: 0.01, RecvRate: 75_000, RTTSample: 0.05})
	})
	m["tfrc.rate_ns"] = nsPerOp(n, nil, func(i int) {
		sink += uint64(tfrc.Rate(1500, 0.05, 0.001*float64(1+i%50), 0.2))
	})
	// One packet in 16 is missing and each gap is more than an RTT
	// after the last, so every gap opens a new loss event.
	lossy := tfrc.NewReceiver(0.005)
	seq := uint64(0)
	m["tfrc.lossevent_ns"] = nsPerOp(n/16, nil, func(i int) {
		now := float64(seq) * 1e-3
		seq += 16
		lossy.OnData(now, seq, 1500, now-0.002, 0.005)
		sink += uint64(lossy.P() * 1e6)
	})
}

// probeTransport times a TFRC flow and the control channel end to end
// on two clients joined by one router.
func probeTransport(m map[string]float64, n int) error {
	b := topology.NewBuilder()
	left, right := b.AddNode(topology.Client, 0, 0), b.AddNode(topology.Client, 2, 0)
	router := b.AddNode(topology.Stub, 1, 0)
	b.AddLink(left, router, topology.ClientStub, 100_000, sim.Millisecond, 0)
	b.AddLink(router, right, topology.ClientStub, 100_000, sim.Millisecond, 0)
	g, err := b.Build()
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	eng := sim.NewEngine(1)
	net := netem.New(eng, g, topology.NewRouter(g), netem.Config{})
	from, to := transport.NewEndpoint(net, left), transport.NewEndpoint(net, right)
	to.OnData(func(int, uint64, int) { sink++ })
	to.OnControl(func(int, any, int) { sink++ })
	flow, err := from.OpenFlow(right, 1500)
	if err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	// Let slow start open the rate before timing.
	seq := uint64(0)
	pump := func(n int) {
		for sent := 0; sent < n; {
			if flow.TrySend(seq, 1500) {
				seq++
				sent++
			} else {
				eng.Run(eng.Now() + sim.Millisecond)
			}
		}
	}
	pump(n / 4)
	// A packet costs TrySend, two hops, delivery and its share of the
	// feedback traffic and of the clock advances that refill the budget.
	m["transport.trysend_ns"] = nsPerOp(1, nil, func(int) { pump(n) }) / float64(n)
	m["transport.control_ns"] = nsPerOp(1, nil, func(int) {
		for i := 0; i < n; i++ {
			from.SendControl(right, nil, 100)
			if i%16 == 15 {
				eng.Run(eng.Now() + sim.Millisecond)
			}
		}
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}) / float64(n)
	return nil
}

// probeInputs times the layers whose cost depends on the input, on the
// workload's own topology, participants and tree.
func probeInputs(m map[string]float64, w workload, seed int64, ops int) error {
	cfg := topology.Sized(w.nodes, w.clients, topology.MediumBandwidth)
	cfg.Seed = seed
	if w.dynamics {
		cfg.Loss = topology.PaperLoss
	}
	var g *topology.Graph
	var err error
	m["topology.generate_s"] = secondsPerCall(func() { g, err = topology.Generate(cfg) })
	if err != nil {
		return fmt.Errorf("topology probe: %w", err)
	}
	var rt *topology.Router
	m["topology.router_build_s"] = secondsPerCall(func() { rt = topology.NewRouter(g) })
	m["topology.partition_s"] = secondsPerCall(func() { sink += uint64(topology.PartitionShards(g, 2).K) })
	m["topology.autoshards_s"] = secondsPerCall(func() { sink += uint64(topology.AutoShards(g, benchProcs())) })

	var tree *overlay.Tree
	m["overlay.random_tree_s"] = secondsPerCall(func() {
		tree, err = overlay.Random(g.Clients, g.Clients[0], w.degree, rand.New(rand.NewSource(seed^0x74726565)))
	})
	if err != nil {
		return fmt.Errorf("overlay probe: %w", err)
	}
	// The offline bottleneck tree queries the router for every
	// candidate pair, so it is probed on a bounded prefix.
	few := g.Clients[:min(len(g.Clients), 100)]
	m["overlay.bottleneck_tree_s"] = secondsPerCall(func() {
		_, err = overlay.Bottleneck(topology.NewRouter(g), few, few[0], 1500, 0)
	})
	if err != nil {
		return fmt.Errorf("overlay probe: %w", err)
	}

	probeRouter(m, g, rt)
	probeHops(m, g, tree)
	probeMetrics(m, g.Clients, ops)

	sp := newSpans(w.name, seed)
	if _, err := w.build(seed, 2*bullet.Second, sp); err != nil {
		return err
	}
	for _, s := range sp.list {
		if s.Name == "core.deploy" {
			m["core.deploy_s"] = float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return nil
}

// probeRouter times route queries between participant pairs: the first
// query per source (which builds that source's state), repeats (memo
// hits), and a full invalidate-and-requery cycle after a link failure.
func probeRouter(m map[string]float64, g *topology.Graph, rt *topology.Router) {
	srcs := g.Clients[:min(len(g.Clients), 32)]
	dsts := g.Clients[len(g.Clients)-min(len(g.Clients), 8):]
	query := func(r *topology.Router) {
		for _, s := range srcs {
			for _, d := range dsts {
				if s != d {
					sink += uint64(len(r.Path(s, d)))
				}
			}
		}
	}
	cold := make([]float64, probeBatches)
	for b := range cold {
		fresh := topology.NewRouter(g)
		start := time.Now()
		for _, s := range srcs {
			sink += uint64(len(fresh.Path(s, dsts[0])))
		}
		cold[b] = float64(time.Since(start).Nanoseconds()) / float64(len(srcs))
	}
	m["topology.path_cold_ns"] = median(cold)

	query(rt)
	pairs := float64(len(srcs) * len(dsts))
	m["topology.path_warm_ns"] = nsPerOp(20, nil, func(int) { query(rt) }) / pairs
	m["topology.delay_ns"] = nsPerOp(20, nil, func(int) {
		for _, s := range srcs {
			for _, d := range dsts {
				sink += uint64(rt.Delay(s, d))
			}
		}
	}) / pairs

	// Fail and restore a transit link: each bumps the route epoch.
	lid := 0
	for i := range g.Links {
		if g.Links[i].Class == topology.TransitTransit {
			lid = i
			break
		}
	}
	m["topology.invalidate_ns"] = nsPerOp(2, nil, func(i int) {
		if i%2 == 0 {
			g.FailLink(lid)
		} else {
			g.RestoreLink(lid)
		}
		rt.Sync()
		query(rt)
	})
}

// probeHops times Send→handler over the workload's tree edges with
// harness handlers only: one small packet per edge per round, rounds
// spaced so queues drain. The lossy variant gives every link a loss
// rate and, once per batch, fails a link on the first edge's route
// while packets are in flight, which exercises the drop, reroute and
// cache-rebuild paths; the flat router rebuilds one shortest-path tree
// per source after that, so it runs on fewer edges.
func probeHops(m map[string]float64, g *topology.Graph, tree *overlay.Tree) {
	type edge struct{ from, to int }
	var edges []edge
	for _, p := range tree.Participants {
		for _, c := range tree.Children(p) {
			edges = append(edges, edge{p, c})
		}
	}
	const rounds = 20
	hop := func(edges []edge, lossy bool) float64 {
		eng := sim.NewEngine(1)
		rt := topology.NewRouter(g)
		net := netem.New(eng, g, rt, netem.Config{})
		for _, p := range tree.Participants {
			net.Register(p, func(netem.Packet) { sink++ })
		}
		seq := uint64(0)
		round := func() {
			for _, e := range edges {
				seq++
				net.Send(netem.Packet{Kind: netem.Data, Seq: seq, Size: 250, From: e.from, To: e.to})
			}
			eng.Run(eng.Now() + 200*sim.Millisecond)
		}
		var before func()
		if lossy {
			saved := make([]float64, len(g.Links))
			for i := range g.Links {
				saved[i] = g.Links[i].Loss
				g.SetLoss(i, max(saved[i], 0.002))
			}
			defer func() {
				for i := range g.Links {
					g.SetLoss(i, saved[i])
				}
			}()
			if path := rt.Path(edges[0].from, edges[0].to); len(path) > 2 {
				victim := int(path[len(path)/2])
				defer g.RestoreLink(victim)
				before = func() {
					g.RestoreLink(victim)
					round() // refill the route caches outside the timed span
					eng.ScheduleAfter(2*sim.Millisecond, func() { g.FailLink(victim) })
				}
			}
		}
		return nsPerOp(rounds, before, func(int) { round() }) / float64(len(edges))
	}
	m["netem.hop_ns"] = hop(edges[:min(len(edges), 256)], false)
	m["netem.hop_lossy_ns"] = hop(edges[:min(len(edges), 32)], true)
}

// probeMetrics times the collector's write path and, on a collector
// filled like the end of a run, its read path.
func probeMetrics(m map[string]float64, nodes []int, n int) {
	col := metrics.NewCollector(sim.Second)
	for _, n := range nodes {
		col.Track(n)
	}
	const buckets = 60
	m["metrics.add_ns"] = nsPerOp(n, nil, func(i int) {
		col.Add(sim.Time(i%buckets)*sim.Second, nodes[i%len(nodes)], metrics.Kind(i%4), 1500)
	})
	m["metrics.series_ns"] = nsPerOp(3, nil, func(int) {
		sink += uint64(len(col.Series(metrics.Useful)))
		sink += uint64(col.MeanOver(buckets/2*sim.Second, buckets*sim.Second, metrics.Useful))
		sink += uint64(len(col.CDFAt(buckets/2*sim.Second, metrics.Useful)))
	})
}
