// Command bullet-sim runs the paper's evaluation experiments in the
// deterministic emulator and prints the series each figure plots.
//
// Usage:
//
//	bullet-sim -experiment fig7 -scale small -seed 42
//	bullet-sim -experiment all -scale medium -out results/
//	bullet-sim -experiment fig6,fig7,fig8 -parallel 4
//	bullet-sim -experiment churn-xl -scale xl -shards 8
//	bullet-sim -experiment fig7 -scale mega -shards auto
//	bullet-sim -list
//
// Scales: small (seconds of wall-clock), medium, xl (the CI smoke
// point for the scale path), paper (the paper's 20,000-node topologies
// with 1000 participants; minutes to hours), mega (100,000 nodes and
// 10,000 participants over a short stream). -cpuprofile and
// -memprofile write pprof profiles covering exactly the experiment
// runs, for diagnosing scale regressions without editing code.
//
// Besides the paper's tables and figures, the dyn-* experiments replay
// deterministic network-dynamics scenarios (transient bottlenecks,
// partitions, flash crowds, oscillating links) against Bullet and the
// plain streaming baseline; see -list for ids.
//
// Execution knobs are orthogonal to what the experiments compute and
// never change output bytes. Multiple experiments (a comma-separated
// list, or "all") fan out across -parallel worker goroutines, each
// with its own engine and emulator; -shards additionally partitions
// every run's topology into that many conservatively synchronized
// simulation shards (see the README's "Parallel simulation" section).
// Results are printed in input order and are byte-identical to a
// serial run: every experiment is a pure function of
// (experiment, scale, seed). Unknown experiment ids fail the command
// with a non-zero exit, but only after every completed result has been
// emitted.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"bullet/internal/experiments"
	"bullet/internal/netem"
)

// shardsValue is the -shards flag: a non-negative shard count, or the
// word "auto" to let topology.AutoShards size the partition from the
// topology's load and the machine's cores (stored as
// netem.AutoShardCount).
type shardsValue struct{ v *int }

func (s shardsValue) String() string {
	if s.v == nil {
		return "0"
	}
	if *s.v == netem.AutoShardCount {
		return "auto"
	}
	return strconv.Itoa(*s.v)
}

func (s shardsValue) Set(raw string) error {
	if raw == "auto" {
		*s.v = netem.AutoShardCount
		return nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return fmt.Errorf("want a shard count or \"auto\", got %q", raw)
	}
	*s.v = n
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected: argv without the program
// name, and the two output streams. It returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bullet-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "experiment id, comma-separated list, or \"all\" (see -list)")
		scaleName  = fs.String("scale", "small", strings.Join(experiments.ScaleNames(), " | "))
		seed       = fs.Int64("seed", 42, "master RNG seed; runs are a pure function of (experiment, scale, seed)")
		outDir     = fs.String("out", "", "directory for per-experiment TSV files (default: stdout)")
		list       = fs.Bool("list", false, "list experiments and exit")
		quiet      = fs.Bool("q", false, "suppress progress output")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for multi-experiment runs")
		shards     int
	)
	fs.Var(shardsValue{&shards}, "shards", "simulation shards per experiment run (0 or 1 = serial, \"auto\" = tuned to topology and cores; output is identical at any value)")
	shardStats := fs.Bool("shardstats", false, "print executed-event accounting to stderr after the runs: a per-shard load table plus global/total event counts for sharded runs, the single-engine total for serial ones (for partition-balance diagnosis; most useful with a single experiment)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintf(stdout, "%-16s  %s\n", n, experiments.Registry[n].Desc)
		}
		return 0
	}
	// The execution knobs never change output bytes; misuse fails
	// before any experiment runs.
	if *parallel <= 0 {
		fmt.Fprintf(stderr, "bullet-sim: -parallel %d: worker count must be positive\n", *parallel)
		return 2
	}
	if shards < 0 && shards != netem.AutoShardCount {
		fmt.Fprintf(stderr, "bullet-sim: -shards %d: shard count cannot be negative (0 or 1 means serial, \"auto\" tunes it)\n", shards)
		return 2
	}
	if *experiment == "" {
		fmt.Fprintln(stderr, "bullet-sim: -experiment is required (or -list)")
		fs.Usage()
		return 2
	}
	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(stderr, "bullet-sim:", err)
		return 1
	}
	scale.Shards = shards
	var statsRec *shardStatsRecorder
	if *shardStats {
		statsRec = &shardStatsRecorder{}
		scale.ShardStatsSink = statsRec.record
	}
	var ids []string
	if *experiment == "all" {
		ids = experiments.Names()
	} else {
		ids = strings.Split(*experiment, ",")
	}
	runs := make([]experiments.Run, len(ids))
	for i, id := range ids {
		// Unknown ids are not rejected up front: they flow through the
		// runner as per-run errors so every valid experiment in the list
		// still executes and prints before the non-zero exit.
		runs[i] = experiments.Run{ID: strings.TrimSpace(id), Scale: scale, Seed: *seed}
	}

	// Profiling hooks: scale regressions at xl/paper are diagnosed by
	// rerunning the same experiment with -cpuprofile/-memprofile, no
	// code edits needed. Profiles cover exactly the experiment runs.
	// Both files are created up front: an unwritable path must fail
	// before minutes of computation, not discard completed results.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "bullet-sim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "bullet-sim:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	var memFile *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(stderr, "bullet-sim:", err)
			return 1
		}
		memFile = f
	}

	start := time.Now()
	if !*quiet {
		fmt.Fprintf(stderr, "running %d experiment(s) at %s scale (seed %d)...\n",
			len(runs), scale.Name, *seed)
	}
	results := experiments.RunAll(runs, *parallel)
	if !*quiet {
		fmt.Fprintf(stderr, "finished in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if statsRec != nil {
		// Stats go to stderr: stdout carries the TSV results and must
		// stay byte-identical with and without the flag.
		statsRec.print(stderr)
	}
	profileFailed := false
	if memFile != nil {
		runtime.GC() // flush accounting so the profile reflects the runs
		err := pprof.Lookup("allocs").WriteTo(memFile, 0)
		if cerr := memFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			// Results are still emitted below; report the profile
			// failure and reflect it in the exit code at the end.
			fmt.Fprintln(stderr, "bullet-sim:", err)
			profileFailed = true
		}
	}

	// Emit every completed result before failing: by this point all runs
	// have been computed, so a single bad experiment must not discard
	// the others' output.
	failed := 0
	for _, rr := range results {
		if rr.Err != nil {
			failed++
			fmt.Fprintf(stderr, "bullet-sim: %s: %v\n", rr.Run.ID, rr.Err)
			continue
		}
		if *outDir == "" {
			rr.Result.Print(stdout)
			continue
		}
		if err := writeResult(*outDir, rr, scale.Name, stderr); err != nil {
			fmt.Fprintln(stderr, "bullet-sim:", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bullet-sim: %d of %d experiment(s) failed\n", failed, len(results))
		return 1
	}
	if profileFailed {
		return 1
	}
	return 0
}

// shardStatsRecorder collects executed-event accounting from
// experiment worlds. Counters are cumulative, so each world's latest
// report supersedes its earlier ones; the recorder keeps the final
// load seen (with several experiments in flight, that is the last
// world to finish a run segment — the flag is aimed at
// single-experiment use).
type shardStatsRecorder struct {
	mu   sync.Mutex
	last netem.RunLoad
	seen bool
}

func (r *shardStatsRecorder) record(l netem.RunLoad) {
	r.mu.Lock()
	r.last = netem.RunLoad{
		Shards:       append(r.last.Shards[:0], l.Shards...),
		GlobalEvents: l.GlobalEvents,
	}
	r.seen = true
	r.mu.Unlock()
}

func (r *shardStatsRecorder) print(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.seen {
		fmt.Fprintln(w, "# shard stats: no run recorded")
		return
	}
	l := r.last
	if len(l.Shards) == 0 {
		// Serial runs report their single-engine count: it is the total
		// any sharded run of the same experiment must reproduce.
		fmt.Fprintf(w, "# serial run: all %d events on the global engine\n", l.GlobalEvents)
		return
	}
	fmt.Fprintf(w, "# shard load (K=%d)\n", len(l.Shards))
	fmt.Fprintln(w, "shard\tnodes\tclients\tweight\tevents\tbusy_ms")
	for _, s := range l.Shards {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.1f\n",
			s.Shard, s.Nodes, s.Clients, s.Weight, s.Events,
			float64(s.BusyNanos)/1e6)
	}
	fmt.Fprintf(w, "# global engine: %d events\n", l.GlobalEvents)
	fmt.Fprintf(w, "# total: %d events (identical for any -shards value)\n", l.TotalEvents())
}

func writeResult(dir string, rr experiments.RunResult, scaleName string, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s.tsv", rr.Run.ID, scaleName))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rr.Result.Print(f)
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}
