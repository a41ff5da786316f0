package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bullet/internal/netem"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListExits0(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, id := range []string{"table1", "fig7", "dyn-partition", "dyn-flashcrowd"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

func TestMissingExperimentExits2(t *testing.T) {
	code, _, errb := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "-experiment is required") {
		t.Errorf("stderr %q missing usage hint", errb)
	}
}

func TestBadFlagExits2(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestUnknownScaleExits1(t *testing.T) {
	code, _, errb := runCLI(t, "-experiment", "table1", "-scale", "galactic")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "unknown scale") {
		t.Errorf("stderr %q missing scale error", errb)
	}
}

// A near-miss scale name gets a did-you-mean on stderr, through the
// same suggestion machinery as experiment ids.
func TestScaleTypoSuggestsNearest(t *testing.T) {
	code, _, errb := runCLI(t, "-experiment", "table1", "-scale", "smal")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, `did you mean "small"`) {
		t.Errorf("stderr %q missing scale suggestion", errb)
	}
}

// A comma-separated list (with stray whitespace) runs every entry and
// prints results in input order.
func TestCommaSeparatedListRunsInOrder(t *testing.T) {
	code, out, _ := runCLI(t, "-q", "-experiment", "table1, overcast", "-scale", "small")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	first := strings.Index(out, "# Table 1")
	second := strings.Index(out, "# Overcast")
	if first < 0 || second < 0 || second < first {
		t.Fatalf("results missing or out of order: table1@%d overcast@%d", first, second)
	}
}

// An unknown id exits non-zero, but only after the completed results
// have been emitted.
func TestUnknownIDEmitsCompletedResultsThenFails(t *testing.T) {
	code, out, errb := runCLI(t, "-q", "-experiment", "table1,nope,overcast", "-scale", "small")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "# Table 1") || !strings.Contains(out, "# Overcast") {
		t.Error("completed results were not emitted before the failure")
	}
	if !strings.Contains(errb, `"nope"`) {
		t.Errorf("stderr %q does not name the unknown experiment", errb)
	}
	if !strings.Contains(errb, "1 of 3 experiment(s) failed") {
		t.Errorf("stderr %q missing failure count", errb)
	}
}

// A near-miss experiment id surfaces a did-you-mean suggestion on
// stderr (nearest registered id by edit distance).
func TestUnknownIDSuggestsNearest(t *testing.T) {
	code, _, errb := runCLI(t, "-q", "-experiment", "fig99")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, `did you mean "fig9"?`) {
		t.Errorf("stderr %q missing did-you-mean suggestion", errb)
	}
	// Far-off ids get no misleading guess.
	code, _, errb = runCLI(t, "-q", "-experiment", "zzzzzzzzzzzz")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Contains(errb, "did you mean") {
		t.Errorf("stderr %q suggests a far-off id", errb)
	}
}

// -list prints each registered experiment on its own line, sorted by
// id, with a one-line description column.
func TestListPrintsOnePerLine(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 28 {
		t.Fatalf("%d lines, want 28 (one per experiment)", len(lines))
	}
	prev := ""
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) < 2 {
			t.Fatalf("line %q has no description column", l)
		}
		if prev >= fields[0] && prev != "" {
			t.Fatalf("ids not sorted: %q >= %q", prev, fields[0])
		}
		prev = fields[0]
	}
}

// -parallel does not change the output bytes.
func TestParallelOutputMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("several small-scale runs; skipped in -short")
	}
	args := []string{"-q", "-experiment", "table1,overcast,dyn-bottleneck", "-scale", "small"}
	_, serial, _ := runCLI(t, append(args, "-parallel", "1")...)
	_, parallel, _ := runCLI(t, append(args, "-parallel", "8")...)
	if serial != parallel {
		t.Fatal("parallel output differs from serial")
	}
	if len(serial) == 0 {
		t.Fatal("no output produced")
	}
}

func TestOutDirWritesTSVFiles(t *testing.T) {
	dir := t.TempDir()
	code, out, _ := runCLI(t, "-q", "-experiment", "table1", "-scale", "small", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if out != "" {
		t.Errorf("stdout %q, want empty when -out is set", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1-small.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# Table 1") {
		t.Error("TSV file missing result header")
	}
}

// -cpuprofile/-memprofile write non-empty pprof files covering the
// experiment runs, so scale regressions can be diagnosed from the CLI.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	code, out, errb := runCLI(t, "-q", "-experiment", "table1", "-scale", "small",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb)
	}
	if !strings.Contains(out, "Table 1") {
		t.Error("experiment output missing despite profiling")
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestProfileBadPathExits1(t *testing.T) {
	code, _, errb := runCLI(t, "-q", "-experiment", "table1",
		"-cpuprofile", filepath.Join(t.TempDir(), "no/such/dir/cpu.out"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "bullet-sim:") {
		t.Errorf("stderr %q missing error", errb)
	}
}

// The xl scale resolves and sits between medium and paper.
func TestXLScaleRecognized(t *testing.T) {
	code, _, errb := runCLI(t, "-q", "-experiment", "nosuch", "-scale", "xl")
	// Unknown experiment fails with exit 1 *after* scale resolution; a
	// bad scale would have failed with "unknown scale".
	if code != 1 || strings.Contains(errb, "unknown scale") {
		t.Fatalf("xl scale not recognized: exit %d, stderr %s", code, errb)
	}
}

// Execution-knob misuse is rejected up front with exit 2 and an error
// naming the flag, before any experiment runs.
func TestRunConfigValidationExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-q", "-experiment", "table1", "-parallel", "0"}, "-parallel 0"},
		{[]string{"-q", "-experiment", "table1", "-parallel", "-3"}, "-parallel -3"},
		// -1 is the auto sentinel (netem.AutoShardCount), so the first
		// plainly-invalid negative is -2.
		{[]string{"-q", "-experiment", "table1", "-shards", "-2"}, "-shards -2"},
	} {
		code, out, errb := runCLI(t, tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb, tc.want) {
			t.Errorf("%v: stderr %q missing %q", tc.args, errb, tc.want)
		}
		if out != "" {
			t.Errorf("%v: experiment ran despite invalid config", tc.args)
		}
	}
}

// -shards does not change the output bytes: a sharded run of the same
// experiments is byte-identical to the serial one.
func TestShardedOutputMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("several small-scale runs; skipped in -short")
	}
	args := []string{"-q", "-experiment", "table1,dyn-bottleneck", "-scale", "small"}
	_, serial, _ := runCLI(t, append(args, "-shards", "1")...)
	_, sharded, _ := runCLI(t, append(args, "-shards", "8")...)
	if serial != sharded {
		t.Fatal("sharded output differs from serial")
	}
	if len(serial) == 0 {
		t.Fatal("no output produced")
	}
}

// -shards accepts the word "auto" (stored as netem.AutoShardCount and
// tuned per topology by topology.AutoShards). At small scale auto
// resolves to serial, and — like every shard count — leaves the output
// bytes unchanged.
func TestShardsAutoFlag(t *testing.T) {
	var shards int
	v := shardsValue{&shards}
	if err := v.Set("auto"); err != nil || shards != netem.AutoShardCount {
		t.Fatalf("Set(auto): err %v, shards %d", err, shards)
	}
	if v.String() != "auto" {
		t.Fatalf("String() = %q, want %q", v.String(), "auto")
	}
	if err := v.Set("8"); err != nil || shards != 8 {
		t.Fatalf("Set(8): err %v, shards %d", err, shards)
	}
	if err := v.Set("eight"); err == nil {
		t.Fatal("Set accepted a non-count, non-auto value")
	}
	if testing.Short() {
		t.Skip("small-scale runs; skipped in -short")
	}
	args := []string{"-q", "-experiment", "table1", "-scale", "small"}
	_, serial, _ := runCLI(t, args...)
	code, auto, _ := runCLI(t, append(args, "-shards", "auto")...)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if auto != serial {
		t.Fatal("-shards auto changed output bytes")
	}
}

// fig15 builds its worlds on a handcrafted topology rather than a
// generated one; their runs must reach the stats sink like any other.
func TestShardStatsTableOnStderr(t *testing.T) {
	if testing.Short() {
		t.Skip("small-scale sharded run; skipped in -short")
	}
	for _, tc := range []struct {
		experiment string
		shards     int
	}{{"fig6", 4}, {"fig15", 2}} {
		t.Run(tc.experiment, func(t *testing.T) {
			k := strconv.Itoa(tc.shards)
			args := []string{"-q", "-experiment", tc.experiment, "-scale", "small", "-shards", k}
			code, plain, _ := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0", code)
			}
			code, out, errb := runCLI(t, append(args, "-shardstats")...)
			if code != 0 {
				t.Fatalf("exit %d, want 0", code)
			}
			if out != plain {
				t.Fatal("-shardstats changed stdout bytes")
			}
			if !strings.Contains(errb, "# shard load (K="+k+")") {
				t.Fatalf("stderr missing shard load header:\n%s", errb)
			}
			if !strings.Contains(errb, "shard\tnodes\tclients\tweight\tevents\tbusy_ms") {
				t.Fatalf("stderr missing shard table columns:\n%s", errb)
			}
			// One data row per shard, each with measured events.
			rows := 0
			for _, line := range strings.Split(errb, "\n") {
				f := strings.Split(line, "\t")
				if len(f) == 6 && f[0] != "shard" {
					rows++
					if f[4] == "0" {
						t.Errorf("shard %s reports zero executed events", f[0])
					}
				}
			}
			if rows != tc.shards {
				t.Fatalf("got %d shard rows, want %d:\n%s", rows, tc.shards, errb)
			}
		})
	}
}

// table1 only generates and measures a topology — it never enters the
// event loop, so there is no load to report. (Serial runs that do
// simulate print their engine total; see
// TestShardStatsEventsSumToSerialTotal.)
func TestShardStatsNoRunRecorded(t *testing.T) {
	code, _, errb := runCLI(t, "-q", "-experiment", "table1", "-scale", "small", "-shardstats")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(errb, "no run recorded") {
		t.Fatalf("stderr missing no-run notice:\n%s", errb)
	}
}

// parseEvents extracts the integer that follows prefix on the matching
// stderr line, e.g. "# global engine: 123 events" -> 123.
func parseEvents(t *testing.T, stderr, prefix string) uint64 {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseUint(strings.Fields(rest)[0], 10, 64)
			if err != nil {
				t.Fatalf("bad count in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("stderr has no line starting %q:\n%s", prefix, stderr)
	return 0
}

// The -shardstats accounting closes: each shard's executed events plus
// the global engine's sum to the printed total, and that total equals
// the serial run's single-engine count — sharding never adds or drops
// a logical event.
func TestShardStatsEventsSumToSerialTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("two small-scale runs; skipped in -short")
	}
	args := []string{"-q", "-experiment", "fig6", "-scale", "small", "-shardstats"}
	code, _, serialErr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("serial exit %d, want 0", code)
	}
	serialTotal := parseEvents(t, serialErr, "# serial run: all ")

	code, _, shardedErr := runCLI(t, append(args, "-shards", "4")...)
	if code != 0 {
		t.Fatalf("sharded exit %d, want 0", code)
	}
	var shardSum uint64
	rows := 0
	for _, line := range strings.Split(shardedErr, "\n") {
		f := strings.Split(line, "\t")
		if len(f) == 6 && f[0] != "shard" {
			v, err := strconv.ParseUint(f[4], 10, 64)
			if err != nil {
				t.Fatalf("bad events column in %q: %v", line, err)
			}
			shardSum += v
			rows++
		}
	}
	if rows != 4 {
		t.Fatalf("got %d shard rows, want 4:\n%s", rows, shardedErr)
	}
	global := parseEvents(t, shardedErr, "# global engine: ")
	total := parseEvents(t, shardedErr, "# total: ")
	if shardSum+global != total {
		t.Errorf("accounting does not close: shards %d + global %d != total %d", shardSum, global, total)
	}
	if total != serialTotal {
		t.Errorf("sharded total %d != serial total %d", total, serialTotal)
	}
}
