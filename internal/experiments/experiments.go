// Package experiments reproduces every table and figure of the Bullet
// paper's evaluation (§4). Every plot there is a set of curves that
// differ in three things — the topology, the tree, and the protocol
// deployed on it — so each runner is a list of such arms (arm.go) plus
// a report that turns every finished run into labeled
// bandwidth-versus-time series and run summaries in the shape the paper
// plots. arm.run is the one place a world is built, deployed into and
// executed: a bullet.World, the same one the public API hands out.
//
// Runners accept a Scale so the same experiment can execute at reduced
// scale (tests, benchmarks) or at the paper's full scale
// (20,000-node topologies, 1000 participants) from cmd/bullet-sim.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"bullet/internal/core"
	"bullet/internal/metrics"
	"bullet/internal/netem"
	"bullet/internal/sim"
)

// Scale parameterizes experiment size.
type Scale struct {
	Name       string
	TopoNodes  int          // physical topology size
	Clients    int          // overlay participants
	Start      sim.Time     // when streaming begins
	Duration   sim.Duration // how long the source streams
	RunUntil   sim.Time     // total virtual run time
	TreeDegree int          // random tree degree bound

	// Shards is the number of parallel simulation shards the emulator
	// runs the experiment on (bullet.WorldConfig.Shards). 0 or 1 means
	// serial execution; netem.AutoShardCount (-1) defers the choice to
	// topology.AutoShards. Any value yields byte-identical results; >1
	// trades goroutine/barrier overhead for wall-clock speedup on
	// multi-core hosts.
	Shards int

	// ShardStatsSink, when set, receives the cumulative executed-event
	// accounting — per-shard load counters plus the global engine's own
	// count — after every run segment of every world the experiment
	// builds (bullet-sim -shardstats wires this to a stderr table).
	// Serial runs report too, with no shard tables: their global count
	// is the total any sharded run of the same experiment must match.
	// Purely observational: it never affects simulation output.
	ShardStatsSink func(netem.RunLoad)
}

// The standard scales.
var (
	// Small finishes in seconds of wall-clock; used by tests and benches.
	Small = Scale{Name: "small", TopoNodes: 1500, Clients: 40,
		Start: 20 * sim.Second, Duration: 130 * sim.Second, RunUntil: 150 * sim.Second, TreeDegree: 5}
	// Medium is an intermediate validation point.
	Medium = Scale{Name: "medium", TopoNodes: 5000, Clients: 150,
		Start: 50 * sim.Second, Duration: 250 * sim.Second, RunUntil: 300 * sim.Second, TreeDegree: 6}
	// XL sits between medium and the paper's full configuration: large
	// enough (10,000-node topology, 400 participants) that per-node
	// state management dominates a map-backed implementation, small
	// enough for CI to run it as a smoke test of the scale path.
	XL = Scale{Name: "xl", TopoNodes: 10000, Clients: 400,
		Start: 60 * sim.Second, Duration: 180 * sim.Second, RunUntil: 260 * sim.Second, TreeDegree: 8}
	// PaperScale mirrors the paper's ModelNet configuration: 20,000-node
	// INET topologies with 1000 participants, streaming from t=100s.
	PaperScale = Scale{Name: "paper", TopoNodes: 20000, Clients: 1000,
		Start: 100 * sim.Second, Duration: 300 * sim.Second, RunUntil: 400 * sim.Second, TreeDegree: 10}
	// Mega is the 100,000-node / 10,000-participant configuration — five
	// times the paper's topology and participant count, exercising the
	// router's largest shared tables and the sharded runner at full
	// tilt. The stream window is deliberately
	// short: at this scale the interesting costs are startup and
	// steady-state event throughput, not long-horizon protocol behavior,
	// and the short window keeps mega runnable as a CI smoke test.
	Mega = Scale{Name: "mega", TopoNodes: 100000, Clients: 10000,
		Start: 20 * sim.Second, Duration: 15 * sim.Second, RunUntil: 40 * sim.Second, TreeDegree: 10}
)

// scales is every named scale, smallest first: the one list ScaleNames
// and ScaleByName read.
var scales = []Scale{Small, Medium, XL, PaperScale, Mega}

// ScaleNames returns the recognized scale names, smallest first.
func ScaleNames() []string {
	var names []string
	for _, sc := range scales {
		names = append(names, sc.Name)
	}
	return names
}

// ScaleByName resolves a scale name. Unknown names yield an
// UnknownScaleError carrying a did-you-mean suggestion.
func ScaleByName(name string) (Scale, error) {
	for _, sc := range scales {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scale{}, &UnknownScaleError{Name: name, Suggestion: Nearest(name, ScaleNames())}
}

// Result is one experiment's output.
type Result struct {
	Name    string
	Series  map[string][]metrics.Point
	order   []string
	CDF     []float64
	Summary map[string]float64
	Notes   []string
}

func newResult(name string) *Result {
	return &Result{Name: name, Series: make(map[string][]metrics.Point), Summary: make(map[string]float64)}
}

func (r *Result) addSeries(label string, pts []metrics.Point) {
	r.Series[label] = pts
	r.order = append(r.order, label)
}

// MeanTail returns the mean Kbps of the labeled series over its final
// frac fraction of samples: the steady-state throughput the shape
// tests and the Figure 7 golden compare.
func (r *Result) MeanTail(label string, frac float64) float64 {
	pts := r.Series[label]
	if len(pts) == 0 {
		return 0
	}
	start := int(float64(len(pts)) * (1 - frac))
	var sum float64
	n := 0
	for _, p := range pts[start:] {
		sum += p.Kbps
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Print writes the result as TSV blocks: one series table, then the
// CDF (if any), then summary key/values.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.Name)
	if len(r.order) > 0 {
		fmt.Fprintf(w, "time_s")
		for _, l := range r.order {
			fmt.Fprintf(w, "\t%s_kbps", l)
		}
		fmt.Fprintln(w)
		maxLen := 0
		for _, l := range r.order {
			if len(r.Series[l]) > maxLen {
				maxLen = len(r.Series[l])
			}
		}
		for i := 0; i < maxLen; i++ {
			var t float64
			for _, l := range r.order {
				if i < len(r.Series[l]) {
					t = r.Series[l][i].T
					break
				}
			}
			fmt.Fprintf(w, "%.0f", t)
			for _, l := range r.order {
				if i < len(r.Series[l]) {
					fmt.Fprintf(w, "\t%.1f", r.Series[l][i].Kbps)
				} else {
					fmt.Fprintf(w, "\t")
				}
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.CDF) > 0 {
		fmt.Fprintln(w, "# CDF (bandwidth_kbps -> fraction of nodes)")
		for i, v := range r.CDF {
			fmt.Fprintf(w, "%.1f\t%.4f\n", v, float64(i+1)/float64(len(r.CDF)))
		}
	}
	if len(r.Summary) > 0 {
		fmt.Fprintln(w, "# summary")
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s\t%.3f\n", k, r.Summary[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
}

// Runner is an experiment entry point.
type Runner func(sc Scale, seed int64) (*Result, error)

// Entry is one registered experiment: its runner plus a one-line
// description (shown by bullet-sim -list).
type Entry struct {
	Run  Runner
	Desc string
}

// Registry maps experiment IDs to entries, for cmd/bullet-sim.
var Registry = map[string]Entry{
	"table1":   {Table1, "topology generation statistics (Table 1)"},
	"fig6":     {Fig06, "bottleneck vs random tree bandwidth (Figure 6)"},
	"fig7":     {Fig07, "Bullet useful/raw bandwidth and overhead (Figure 7)"},
	"fig8":     {Fig08, "per-node useful bandwidth CDF (Figure 8)"},
	"fig9":     {Fig09, "Bullet vs bottleneck tree, low/high bandwidth (Figure 9)"},
	"fig10":    {Fig10, "disjoint-send ablation: non-disjoint relay (Figure 10)"},
	"fig11":    {Fig11, "Bullet vs push gossip vs anti-entropy (Figure 11)"},
	"fig12":    {Fig12, "low-bandwidth comparison run (Figure 12)"},
	"fig13":    {Fig13, "performance under 25% node failure (Figure 13)"},
	"fig14":    {Fig14, "performance under link loss (Figure 14)"},
	"fig15":    {Fig15, "Bullet vs best/worst streaming trees (Figure 15)"},
	"overcast": {OvercastComparison, "Overcast-style online tree vs offline bottleneck tree"},

	// Dynamic-network scenarios (see dynamics.go): Bullet vs the plain
	// tree streamer under runtime link mutations.
	"dyn-bottleneck": {DynBottleneck, "transit backbone degrades mid-run, Bullet vs streamer"},
	"dyn-partition":  {DynPartition, "network partition and heal, Bullet vs streamer"},
	"dyn-flashcrowd": {DynFlashCrowd, "flash-crowd bandwidth squeeze, Bullet vs streamer"},
	"dyn-oscillate":  {DynOscillate, "oscillating link failure, Bullet vs streamer"},

	// Membership-churn scenarios (see churn.go): crashes, restarts, and
	// joins replayed against Bullet and the plain tree streamer.
	// churn-xl is the scale-path smoke mix, designed to be run at the
	// xl scale (CI does).
	"churn-crash25":   {ChurnCrash25, "25% crash wave mid-stream, Bullet vs streamer"},
	"churn-crashheal": {ChurnCrashHeal, "crash wave with staggered restarts, Bullet vs streamer"},
	"churn-rolling":   {ChurnRolling, "rolling one-at-a-time churn, Bullet vs streamer"},
	"churn-join":      {ChurnJoin, "late join wave, Bullet vs streamer"},
	"churn-xl":        {ChurnXL, "sustained crash/restart/join mix (xl scale-path smoke)"},

	// Workload comparisons (see workloads.go): the identical non-CBR
	// workload — fountain-coded file distribution with completion
	// CDFs, or a bursty VBR stream — disseminated by Bullet, the plain
	// streamer, and push gossip.
	"filedist-compare": {FileDistCompare, "fountain-coded file distribution completion times"},
	"vbr-stream":       {VBRStream, "bursty on/off VBR stream, Bullet vs streamer"},

	// Adversary scenarios (see adversary.go): Bullet vs the plain tree
	// streamer under the identical seeded hostile-peer attack, honest
	// subset metrics only.
	"adv-freeride":    {AdvFreeride, "free-riders leech without serving, Bullet vs streamer"},
	"adv-liar":        {AdvLiar, "forged-ticket sender-selection poisoning, Bullet vs streamer"},
	"adv-cutvertex":   {AdvCutvertex, "targeted cut-vertex crash timing, Bullet vs streamer"},
	"adv-joinstorm":   {AdvJoinstorm, "seeded leave/rejoin flash crowds, Bullet vs streamer"},
	"adv-ballotstuff": {AdvBallotstuff, "RanSub ballot stuffing toward colluders, Bullet vs streamer"},
}

// Names returns registry keys in a stable order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

const defaultRateKbps = 600

// bulletConfig is the shared Bullet configuration for figure runs.
// The paper's sender/receiver list bound of 10 was chosen for
// 1000-participant runs; at reduced scales a 10-peer mesh over a few
// dozen nodes is over-connected and its per-node control overhead is
// disproportionate, so the mesh degree scales with participant count
// (reaching the paper's 10 at and above ~100 participants).
func bulletConfig(sc Scale, rateKbps float64) core.Config {
	cfg := core.DefaultConfig(rateKbps)
	cfg.Start = sc.Start
	cfg.Duration = sc.Duration
	cfg.TraceEvery = 100
	peers := sc.Clients / 10
	if peers < 4 {
		peers = 4
	}
	if peers > 10 {
		peers = 10
	}
	cfg.MaxSenders = peers
	cfg.MaxReceivers = peers
	return cfg
}
