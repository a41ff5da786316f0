package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: bullet
BenchmarkFig07-8   	       1	2052964325 ns/op	        19.88 control_kbps	         0.1607 dup_ratio	         2.393 link_stress	       658.8 raw_kbps	       551.8 useful_kbps	155018464 B/op	 1503626 allocs/op
BenchmarkTable1-8  	       1	  11483393 ns/op	      1500 topo_nodes	 3231288 B/op	   27066 allocs/op
PASS
ok  	bullet	4.567s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	fig7 := rep.Benchmarks["BenchmarkFig07"]
	if fig7 == nil {
		t.Fatal("BenchmarkFig07 missing (GOMAXPROCS suffix not stripped?)")
	}
	checks := map[string]float64{
		"ns/op":       2052964325,
		"useful_kbps": 551.8,
		"dup_ratio":   0.1607,
		"B/op":        155018464,
		"allocs/op":   1503626,
	}
	for unit, want := range checks {
		if got := fig7[unit]; got != want {
			t.Errorf("%s = %v, want %v", unit, got, want)
		}
	}
}

func writeBaseline(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07":  {"ns/op": 1800000000}, // current is +14%: allowed
		"BenchmarkTable1": {"ns/op": 11000000},
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base}, strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "BenchmarkFig07") {
		t.Error("comparison table missing BenchmarkFig07")
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07": {"ns/op": 1000000000}, // current is +105%: fails at 20%
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-max-regress", "0.20"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "BenchmarkFig07") {
		t.Errorf("stderr %q does not name the regressed benchmark", errb.String())
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkDeleted": {"ns/op": 1e9},
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base}, strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (baseline benchmark missing from run)", code)
	}
	if !strings.Contains(errb.String(), "missing from current run") {
		t.Errorf("stderr %q missing explanation", errb.String())
	}
}

// Benchmarks under the -exempt-below floor are recorded but never gated:
// single-iteration timings of sub-100ms benches are noise.
func TestGateSkipsTinyBenchmarks(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkTable1": {"ns/op": 11000000}, // 11ms baseline, current is +4%
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-max-regress", "0.001"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (tiny bench should be skipped); stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("table %q does not mark the tiny bench skipped", out.String())
	}
	// With the floor lowered it gates (and fails at 0.1%).
	code = run([]string{"-baseline", base, "-max-regress", "0.001", "-exempt-below", "1000"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 with -exempt-below 1000", code)
	}
}

// With -calibrate, a uniform hardware-speed delta between baseline and
// current machine cancels out, while a single outlier benchmark still
// fails the gate.
func TestCalibrateCancelsUniformShift(t *testing.T) {
	// Baseline is uniformly ~1.6x faster than the "current" machine
	// (as if recorded on faster hardware): without calibration every
	// bench fails, with it none do.
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07":  {"ns/op": 2052964325.0 / 1.6},
		"BenchmarkTable1": {"ns/op": 11483393.0 / 1.6},
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-exempt-below", "1000"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("uncalibrated exit %d, want 1 (uniform shift trips gate)", code)
	}
	code = run([]string{"-baseline", base, "-exempt-below", "1000", "-calibrate"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("calibrated exit %d, want 0; stderr: %s", code, errb.String())
	}

	// One bench regressing 2x against an otherwise-matching baseline
	// fails even with calibration (median tracks the majority).
	base = writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07":  {"ns/op": 2052964325.0 / 2}, // current looks 2x slower
		"BenchmarkTable1": {"ns/op": 11483393.0},       // current matches
	}})
	code = run([]string{"-baseline", base, "-exempt-below", "1000", "-calibrate"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("calibrated outlier exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "BenchmarkFig07") {
		t.Errorf("stderr %q does not name the regressed benchmark", errb.String())
	}
}

func TestJSONArtifactRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var out, errb bytes.Buffer
	code := run([]string{"-json", path}, strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks["BenchmarkFig07"]["useful_kbps"] != 551.8 {
		t.Error("custom metric lost in JSON round trip")
	}
	// The artifact can serve as its own baseline: identical runs pass.
	code = run([]string{"-baseline", path}, strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("self-baseline exit %d, want 0; stderr: %s", code, errb.String())
	}
}

func TestEmptyInputFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader("no benchmarks here\n"), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 on empty input", code)
	}
}

// The gate covers B/op and allocs/op alongside ns/op: a benchmark that
// stays fast but doubles its allocations fails.
func TestGateFailsOnAllocRegression(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		// ns/op and B/op match the current run; allocs/op halves the
		// current value, i.e. the current run regressed +100%.
		"BenchmarkFig07": {"ns/op": 2052964325, "B/op": 155018464, "allocs/op": 751813},
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-max-regress", "0.20"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (allocs/op regressed)", code)
	}
	if !strings.Contains(errb.String(), "allocs/op") {
		t.Errorf("stderr %q does not name allocs/op", errb.String())
	}
}

func TestGateFailsOnBytesRegression(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07": {"ns/op": 2052964325, "B/op": 100000000, "allocs/op": 1503626},
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-max-regress", "0.20"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (B/op regressed +55%%)", code)
	}
	if !strings.Contains(errb.String(), "B/op") {
		t.Errorf("stderr %q does not name B/op", errb.String())
	}
}

// The -exempt-below exemption applies to every gate metric, and
// calibration must never rescale counting metrics: a machine-speed
// delta changes ns/op, not allocation counts.
func TestGateMetricsRespectExemptionAndCalibrate(t *testing.T) {
	tiny := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		// 11ms baseline: exempt even though allocs/op regressed wildly.
		"BenchmarkTable1": {"ns/op": 11000000, "allocs/op": 10},
	}})
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", tiny}, strings.NewReader(benchOutput), &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (exempt bench must skip alloc gate too); stderr: %s", code, errb.String())
	}
	// Uniform 1.6x time shift + a real alloc regression: calibration
	// forgives the former, never the latter.
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07":  {"ns/op": 2052964325.0 / 1.6, "allocs/op": 751813},
		"BenchmarkTable1": {"ns/op": 11483393.0 / 1.6},
	}})
	out.Reset()
	errb.Reset()
	code := run([]string{"-baseline", base, "-exempt-below", "1000", "-calibrate"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (alloc regression must survive calibration)", code)
	}
	if !strings.Contains(errb.String(), "allocs/op") {
		t.Errorf("stderr %q does not name allocs/op", errb.String())
	}
	if strings.Contains(errb.String(), "ns/op 1283102703") {
		t.Errorf("calibration failed to cancel the uniform time shift: %s", errb.String())
	}
}

// -update rewrites the baseline file from the current run with
// deterministic bytes: sorted benchmark names, sorted metric keys,
// shortest round-trip floats — so regenerating from identical metrics
// is a no-op diff, and the fresh baseline gates its own run clean.
func TestUpdateRewritesBaselineDeterministically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	// Seed the file with stale content -update must fully replace.
	if err := os.WriteFile(path, []byte(`{"benchmarks":{"BenchmarkGone":{"ns/op":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", path, "-update"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(first), "BenchmarkGone") {
		t.Error("stale baseline entry survived -update")
	}
	fig7 := strings.Index(string(first), "BenchmarkFig07")
	table1 := strings.Index(string(first), "BenchmarkTable1")
	if fig7 < 0 || table1 < 0 || table1 < fig7 {
		t.Fatalf("benchmark names missing or unsorted: Fig07@%d Table1@%d", fig7, table1)
	}
	if !strings.Contains(string(first), `"ns/op": 2052964325`) {
		t.Errorf("integral float not in shortest form:\n%s", first)
	}
	// Rerunning on the same input must reproduce the bytes exactly.
	if code := run([]string{"-baseline", path, "-update"},
		strings.NewReader(benchOutput), &out, &errb); code != 0 {
		t.Fatalf("second -update exit %d", code)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("-update output is not byte-stable across identical runs")
	}
	// The regenerated baseline passes against the run that produced it,
	// even with a zero regression allowance.
	if code := run([]string{"-baseline", path, "-max-regress", "0", "-exempt-below", "0"},
		strings.NewReader(benchOutput), &out, &errb); code != 0 {
		t.Fatalf("fresh baseline fails its own run: exit %d; stderr: %s", code, errb.String())
	}
}

func TestUpdateRequiresBaseline(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-update"}, strings.NewReader(benchOutput), &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (-update without -baseline)", code)
	}
	if !strings.Contains(errb.String(), "-update requires -baseline") {
		t.Errorf("stderr %q missing explanation", errb.String())
	}
}

// The -exempt-below exemption is strict: a baseline ns/op exactly at
// the threshold is gated, one below it is skipped.
func TestExemptBelowBoundary(t *testing.T) {
	// Baseline 11ms; the current run (benchOutput) is ~+4.4%, so with a
	// 0.1% allowance the benchmark fails whenever it is actually gated.
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkTable1": {"ns/op": 11000000},
	}})
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base, "-max-regress", "0.001", "-exempt-below", "11000000"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("baseline == threshold: exit %d, want 1 (gated)", code)
	}
	code = run([]string{"-baseline", base, "-max-regress", "0.001", "-exempt-below", "11000001"},
		strings.NewReader(benchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("baseline < threshold: exit %d, want 0 (exempt); stderr: %s", code, errb.String())
	}
}

// A benchmark whose current run lacks a gate metric the baseline has
// must fail, not gate as 0 (which would read as a -100% improvement).
func TestGateFailsOnMissingMetric(t *testing.T) {
	base := writeBaseline(t, &Report{Benchmarks: map[string]Metrics{
		"BenchmarkFig07": {"ns/op": 2052964325, "B/op": 155018464, "allocs/op": 1503626},
	}})
	// Current output without -benchmem: no B/op / allocs/op columns.
	cur := "BenchmarkFig07-8   1   2052964325 ns/op   551.8 useful_kbps\nPASS\n"
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", base}, strings.NewReader(cur), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (gate metric missing from current run)", code)
	}
	if !strings.Contains(errb.String(), "allocs/op missing from current run") {
		t.Errorf("stderr %q missing explanation", errb.String())
	}
}
