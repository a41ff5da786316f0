// Command benchmark is the repo's benchmark: six simulator workloads
// measured end to end and layer by layer, with their simulated outputs
// checked. BENCHMARK.json at the repo root declares the workloads and
// metrics; README.md in this directory explains them.
//
//	go run ./benchmark -seed 42 -out benchmark/out/a.json   # everything
//	go run ./benchmark -list
//	go run ./benchmark -compare a.json b.json
//	bash benchmark/run.sh -reps 1 --workload bullet-steady --seed 7 --seconds 12 --trace 0
//
// The last is the command of BENCHMARK.json: run.sh builds the program
// with every cache inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"

	"bullet"
)

func main() {
	var (
		names     = flag.String("workload", "", "comma-separated workload names (default: all)")
		seed      = flag.Int64("seed", 42, "seeds topology, tree and protocols")
		seconds   = flag.Float64("seconds", 0, "wall-clock budget of one repetition of a workload's instances on the reference box (default: run_seconds of BENCHMARK.json)")
		reps      = flag.Int("reps", 3, "timed repetitions of every instance, each taking the budget again; repetitions must agree on the digest")
		trace     = flag.String("trace", "both", "both: timed repetitions, traced run and probes, printed as a table; 0: timed repetitions only, 1: traced run and probes only, printed as one JSON result line per workload")
		out       = flag.String("out", "", "write the result set to this file")
		list      = flag.Bool("list", false, "list workloads and metrics with units and bounds")
		doCompare = flag.Bool("compare", false, "compare two result sets: -compare base.json candidate.json")
		quick     = flag.Bool("quick", false, "test scale: 300 nodes, 10 participants, 5 virtual seconds")
		pin       = flag.Bool("write-golden", false, "pin this run's digests in benchmark/golden.json")
		childMode = flag.String("child", "", "internal: run as a child process in this mode")
		stream    = flag.Int64("stream", 0, "internal: a child's streamed span in virtual seconds")
	)
	flag.Parse()

	if *childMode != "" {
		w, ok := workloadByName(*names)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *names))
		}
		probeOps := fullProbeOps
		if *quick {
			w, probeOps = w.quick(), quickProbeOps
		}
		if err := child(*childMode, w, *seed, bullet.Duration(*stream)*bullet.Second, probeOps); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	switch {
	case *list:
		printList(spec)
		return
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		base, err := readResultSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cand, err := readResultSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, spec, base, cand) {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	for _, load := range spec.Workloads {
		if *names != "" && !strings.Contains(","+*names+",", ","+load.Name+",") {
			continue
		}
		w, ok := workloadByName(load.Name)
		if !ok {
			fatal(fmt.Errorf("BENCHMARK.json names workload %q, which the program does not define", load.Name))
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("no workload matches %q", *names))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	goldenPath := filepath.Join(spec.dir, "benchmark", "golden.json")
	golden, err := loadGolden(goldenPath)
	if err != nil && !*pin {
		fatal(err)
	}
	o := &options{spec: spec, seed: *seed, seconds: *seconds, reps: *reps, quick: *quick,
		timed: *trace != "1", traced: *trace != "0", golden: golden, launch: launchChild(*quick)}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}

	rs := &resultSet{Environment: readEnvironment(spec.dir), Seed: *seed, Seconds: o.seconds, Quick: *quick}
	if rs.Environment.LoadFlagged {
		fmt.Fprintf(os.Stderr, "benchmark: 1-minute load %.2f exceeds %d cores: host-clock numbers are suspect\n",
			rs.Environment.LoadAvg1, rs.Environment.NProc)
	}
	done := make(map[string]*workloadResult)
	for _, w := range selected {
		r := o.measure(w, done)
		done[w.name] = r
		rs.Workloads = append(rs.Workloads, r)
		rs.ChecksAttempted += len(r.Checks)
		rs.ChecksFailed += r.failed()
	}
	rs.CheckFailFrac = float64(rs.ChecksFailed) / float64(max(rs.ChecksAttempted, 1))

	if *out != "" {
		if err := writeResultSet(*out, rs); err != nil {
			fatal(err)
		}
	}
	if *pin {
		if err := writeGolden(goldenPath, rs.Workloads); err != nil {
			fatal(err)
		}
	}
	// -trace selects the form of the output: the table for both, and
	// for 0 or 1, the driver's form, one JSON line per workload with the
	// end-to-end metrics untraced or the per-layer metrics traced.
	if *trace == "both" {
		printReport(spec, rs)
	} else {
		for _, r := range rs.Workloads {
			if err := printResultLine(os.Stdout, spec, r, *trace == "1"); err != nil {
				fatal(err)
			}
		}
	}
	if rs.ChecksFailed > 0 {
		for _, r := range rs.Workloads {
			for _, c := range r.Checks {
				if !c.OK {
					fmt.Fprintf(os.Stderr, "benchmark: %s: check %s failed: %s\n", r.Name, c.Name, c.Detail)
				}
			}
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func printList(spec *benchSpec) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, w := range spec.Workloads {
		fmt.Fprintf(tw, "%s\t%s\n", w.Name, w.Why)
	}
	fmt.Fprintln(tw, "\nEND-TO-END METRIC\tUNIT\tBETTER\tBOUND")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(tw, "\nPER-LAYER METRIC\tUNIT\tBETTER\tSHOULD MOVE")
	for _, m := range spec.PerLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, strings.Join(spec.ShouldMove[m.Name], ", "))
	}
	tw.Flush()
}

// printReport prints every declared metric of every measured workload
// by name with its unit.
func printReport(spec *benchSpec, rs *resultSet) {
	e := rs.Environment
	fmt.Printf("%s %s, %d cores, GOMAXPROCS %d, %s, commit %s, load %.2f, seed %d\n",
		e.CPU, e.GoVersion, e.NProc, e.GOMAXPROCS, e.GOARCH, e.Commit, e.LoadAvg1, rs.Seed)
	for _, r := range rs.Workloads {
		fmt.Printf("\n== %s: %g virtual s streamed, digest %.16s\n", r.Name, r.StreamS, r.Digest)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
			if s := r.Samples[m.Name]; len(s) > 0 {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\tmin %.6g\tmax %.6g\tn %d\n", m.Name, median(s), m.Unit,
					slices.Min(s), slices.Max(s), len(s))
			} else if v, ok := r.Layer[m.Name]; ok {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t\t\t\n", m.Name, v, m.Unit)
			}
		}
		tw.Flush()
		if r.TraceFile != "" {
			fmt.Printf("trace: %s\n", r.TraceFile)
		}
	}
	fmt.Printf("\ncheck_fail_frac %g failed/attempted (%d of %d)\n", rs.CheckFailFrac, rs.ChecksFailed, rs.ChecksAttempted)
}

// printResultLine prints the one-line JSON result of a workload: every
// end-to-end metric, or with perLayer every per-layer metric, and the
// workload's checks as attempted and failed operations.
func printResultLine(out io.Writer, spec *benchSpec, r *workloadResult, perLayer bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed() == 0, len(r.Checks), r.failed(), make(map[string]value)}
	declared := spec.EndToEnd
	if perLayer {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v, ok := r.value(m.Name)
		if !ok && line.Correct {
			return fmt.Errorf("%s: metric %s was not measured", r.Name, m.Name)
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}
