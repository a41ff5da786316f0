// Command benchgate converts `go test -bench` output into a JSON
// metrics artifact and gates benchmark regressions against a committed
// baseline.
//
// Convert bench output to JSON:
//
//	go test -bench=. -benchtime=1x -benchmem | benchgate -json BENCH.json
//
// Gate against a baseline (exit 1 on a >20% regression of any gate
// metric — ns/op, B/op, or allocs/op):
//
//	go test -bench=. -benchtime=1x -benchmem | \
//	    benchgate -json BENCH.json -baseline bench_baseline.json -max-regress 0.20
//
// Regenerate the committed baseline from a fresh run (deterministic
// bytes: names and metric keys sorted, floats in their shortest
// round-trip form — rerunning on identical metrics is a no-op diff):
//
//	go test -bench=. -benchtime=1x -benchmem | \
//	    benchgate -baseline bench_baseline.json -update
//
// The JSON artifact records every metric a benchmark reported — ns/op,
// B/op, allocs/op, and the custom experiment metrics (useful_kbps,
// dup_ratio, ...) — keyed by benchmark name with the GOMAXPROCS suffix
// stripped. Only the gate metrics (default "ns/op,B/op,allocs/op")
// fail the run; the rest are carried so CI artifacts track the full
// trajectory. Benchmarks whose baseline ns/op is strictly under
// -exempt-below are exempt from every gate metric (single-iteration
// noise); -calibrate divides out a uniform hardware delta for ns/op
// only, since byte and allocation counts do not scale with machine
// speed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics maps metric unit -> value for one benchmark.
type Metrics map[string]float64

// Report is the JSON artifact shape.
type Report struct {
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in         = fs.String("in", "-", "bench output file (default: stdin)")
		jsonOut    = fs.String("json", "", "write parsed metrics JSON to this file")
		baseline   = fs.String("baseline", "", "baseline JSON to gate against")
		maxRegress = fs.Float64("max-regress", 0.20, "allowed fractional regression of each gate metric")
		metric     = fs.String("metric", "ns/op,B/op,allocs/op", "comma-separated metrics the gate compares")
		exempt     = fs.Float64("exempt-below", 1e8, "exempt benchmarks whose baseline ns/op is strictly below this from every gate metric (single-iteration timings of sub-100ms benches are noise)")
		update     = fs.Bool("update", false, "rewrite the -baseline file from this run's parsed metrics instead of gating against it (deterministic bytes: sorted keys, shortest round-trip floats)")
		calibrate  = fs.Bool("calibrate", false, "divide current ns/op by the median current/baseline ratio (clamped to [0.5, 2]) before gating, so a uniform hardware-speed delta between the baseline machine and this one does not trip the gate; counting metrics (B/op, allocs/op) are machine-independent and never calibrated")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchgate: no benchmark lines in input")
		return 1
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchgate: wrote %d benchmark(s) to %s\n", len(rep.Benchmarks), *jsonOut)
	}
	if *update {
		if *baseline == "" {
			fmt.Fprintln(stderr, "benchgate: -update requires -baseline (the file to rewrite)")
			return 2
		}
		if err := writeReport(*baseline, rep); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchgate: updated baseline %s with %d benchmark(s)\n", *baseline, len(rep.Benchmarks))
		return 0
	}
	if *baseline == "" {
		return 0
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchgate: %s: %v\n", *baseline, err)
		return 1
	}
	var failures []string
	seen := make(map[string]bool)
	for _, m := range strings.Split(*metric, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		// Calibration corrects for machine speed, which only affects
		// timing metrics.
		cal := *calibrate && m == "ns/op"
		for _, f := range gate(&base, rep, m, *maxRegress, *exempt, cal, stdout) {
			// A benchmark missing from the current run surfaces once per
			// gate metric with the identical message; count it once.
			if !seen[f] {
				seen[f] = true
				failures = append(failures, f)
			}
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "benchgate: %d regression(s) beyond %.0f%% on %s:\n",
			len(failures), *maxRegress*100, *metric)
		for _, f := range failures {
			fmt.Fprintf(stderr, "  %s\n", f)
		}
		return 1
	}
	return 0
}

// writeReport serializes rep to path with deterministic bytes: the
// same metrics always produce the same file, so regenerating an
// unchanged baseline is a no-op diff. encoding/json provides both
// guarantees — map keys (benchmark names and metric units) are emitted
// sorted, and floats use the shortest representation that round-trips.
func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parse extracts benchmark metrics from `go test -bench` output. A
// bench line looks like:
//
//	BenchmarkFig07-8   1   2052964325 ns/op   551.8 useful_kbps   12 B/op   3 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. The -N
// GOMAXPROCS suffix is stripped from the name.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: make(map[string]Metrics)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // PASS/FAIL lines, headers
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := rep.Benchmarks[name]
		if m == nil {
			m = make(Metrics)
			rep.Benchmarks[name] = m
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], sc.Text())
			}
			m[fields[i+1]] = v
		}
	}
	return rep, sc.Err()
}

// gate compares every baseline benchmark's gate metric against the
// current run, prints a comparison table, and returns descriptions of
// the benchmarks that regressed beyond maxRegress. A benchmark present
// in the baseline but missing from the current run is a failure (a
// silently deleted benchmark would otherwise un-gate itself); new
// benchmarks pass unchecked, as do benchmarks whose baseline ns/op is
// strictly below exemptBelow — at -benchtime=1x their timing is
// dominated by noise, though their metrics still land in the JSON
// artifact. A baseline exactly at the threshold is gated.
//
// With calibrate, current values are divided by the median
// current/baseline ratio across the gated set before comparison: a
// uniform shift (the baseline was recorded on different hardware)
// cancels out, while a single benchmark regressing stands out against
// the median. The correction is clamped to [0.5, 2], so a uniform
// slowdown beyond 2x still trips the gate rather than being normalized
// away.
func gate(base, cur *Report, metric string, maxRegress, exemptBelow float64, calibrate bool, out io.Writer) []string {
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	gated := func(n string) (bv float64, ok bool) {
		bv, ok = base.Benchmarks[n][metric]
		if !ok {
			return 0, false // no gate metric: informational only
		}
		if ns, has := base.Benchmarks[n]["ns/op"]; has && ns < exemptBelow {
			return bv, false
		}
		return bv, true
	}

	scale := 1.0
	if calibrate {
		var ratios []float64
		for _, n := range names {
			bv, ok := gated(n)
			if !ok || bv == 0 {
				continue
			}
			if cm, ok := cur.Benchmarks[n]; ok {
				ratios = append(ratios, cm[metric]/bv)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			if n := len(ratios); n%2 == 1 {
				scale = ratios[n/2]
			} else {
				scale = (ratios[n/2-1] + ratios[n/2]) / 2
			}
			if scale < 0.5 {
				scale = 0.5
			} else if scale > 2 {
				scale = 2
			}
			fmt.Fprintf(out, "calibration: dividing current %s by median ratio %.3f\n", metric, scale)
		}
	}

	var failures []string
	fmt.Fprintf(out, "%-40s %15s %15s %8s\n", "benchmark", "baseline "+metric, "current "+metric, "delta")
	for _, n := range names {
		bv, ok := gated(n)
		if !ok {
			if _, has := base.Benchmarks[n][metric]; has {
				fmt.Fprintf(out, "%-40s %15.0f %15s %8s\n", n, bv, "-", "skipped")
			}
			continue
		}
		cm, ok := cur.Benchmarks[n]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", n))
			fmt.Fprintf(out, "%-40s %15.0f %15s %8s\n", n, bv, "missing", "FAIL")
			continue
		}
		cvRaw, ok := cm[metric]
		if !ok {
			// A gate metric the baseline has but the current run lacks
			// (e.g. -benchmem dropped, ReportAllocs removed) would
			// otherwise gate as 0 and read as a -100% improvement.
			failures = append(failures, fmt.Sprintf("%s: %s missing from current run", n, metric))
			fmt.Fprintf(out, "%-40s %15.0f %15s %8s\n", n, bv, "missing", "FAIL")
			continue
		}
		cv := cvRaw / scale
		delta := 0.0
		if bv != 0 {
			delta = (cv - bv) / bv
		}
		status := fmt.Sprintf("%+.1f%%", delta*100)
		if cv > bv*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf("%s: %s %.0f -> %.0f (%+.1f%%)", n, metric, bv, cv, delta*100))
			status += " FAIL"
		}
		fmt.Fprintf(out, "%-40s %15.0f %15.0f %8s\n", n, bv, cv, status)
	}
	return failures
}
