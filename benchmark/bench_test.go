package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"bullet"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// inProcess runs what a child would, in the test process.
func inProcess(mode string, w workload, seed int64, stream bullet.Duration) (*runResult, error) {
	switch mode {
	case modeRun, modeTraced:
		return runChild(w, seed, stream, mode == modeTraced)
	case modeProbes:
		m, err := runProbes(w, seed, quickProbeOps)
		return &runResult{Metrics: m}, err
	}
	_, err := w.build(seed, stream, nil)
	return &runResult{Metrics: map[string]float64{"setup_s": 0.001}}, err
}

func TestSpecWithinContractLimits(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", spec.RunSeconds)
	}
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json but not in the program's table", i, w.Name)
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("program defines %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
	}
	setup := slices.IndexFunc(spec.EndToEnd, func(m metricSpec) bool { return m.Name == "setup_s" })
	if setup < 0 || spec.EndToEnd[setup].Unit != "s" || spec.EndToEnd[setup].Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better; got %+v", spec.EndToEnd)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > spec.EndToEnd[setup].Bound {
			t.Errorf("metric %s: bound %v is larger than that of setup_s", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
		moves, ok := spec.ShouldMove[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s: should_move.json does not say which end-to-end metric it should move", m.Name)
		}
		for _, target := range moves {
			if !seen[target] || strings.Contains(target, ".") {
				t.Errorf("per-layer metric %s should move %q, which is no end-to-end quantity", m.Name, target)
			}
		}
	}
	if len(spec.ShouldMove) != len(spec.PerLayer) {
		t.Errorf("should_move.json has %d entries for %d per-layer metrics", len(spec.ShouldMove), len(spec.PerLayer))
	}
}

// TestQuickRunOfEveryWorkload runs all six workload shapes at the test
// scale, timed, traced and probed, and holds the output against
// BENCHMARK.json: every declared name is emitted and no other.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	spec := testSpec(t)
	spec.dir = t.TempDir() // traces go to <dir>/benchmark/out
	o := &options{spec: spec, seed: 42, seconds: 1, quick: true, timed: true, traced: true, launch: inProcess}
	declared := make(map[string]bool)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	done := make(map[string]*workloadResult)
	for _, w := range workloads {
		r := o.measure(w, done)
		done[w.name] = r
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Detail)
			}
		}
		for name := range declared {
			if _, ok := r.value(name); !ok {
				t.Errorf("%s: declared metric %s is not emitted", w.name, name)
			}
		}
		for name := range r.Samples {
			if !declared[name] {
				t.Errorf("%s: emitted metric %s is not declared", w.name, name)
			}
		}
		for name := range r.Layer {
			if !declared[name] {
				t.Errorf("%s: emitted metric %s is not declared", w.name, name)
			}
		}
		if r.StreamS != 5 {
			t.Errorf("%s: quick run streamed %v virtual s, want 5", w.name, r.StreamS)
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
		if w.shards > 1 && r.Layer["shard.k"] != float64(w.shards) {
			t.Errorf("%s: ran on %v shards, want %d", w.name, r.Layer["shard.k"], w.shards)
		}
	}
	if a, b := done["bullet-wide"], done["bullet-wide-sharded"]; a.Digest != b.Digest {
		t.Errorf("sharded digest %s differs from serial %s", b.Digest, a.Digest)
	}
	if a, b := done["bullet-steady"], done["bullet-dynamics"]; a.Digest == b.Digest {
		t.Errorf("different workloads share digest %s", a.Digest)
	}
	// The same inputs again give the same digest, from one
	// measurement to the next and between a measurement's repetitions;
	// different instances give different ones.
	o.reps = 2
	again := o.measure(workloads[0], nil)
	if again.Digest == "" || again.Digest != done[workloads[0].name].Digest {
		t.Errorf("digest not deterministic: %s then %s", done[workloads[0].name].Digest, again.Digest)
	}
	agree := 0
	for _, c := range again.Checks {
		if c.Name == "repetitions-agree" {
			agree++
		}
		if !c.OK {
			t.Errorf("second measurement: check %s failed: %s", c.Name, c.Detail)
		}
	}
	if d := again.InstanceDigests; agree != len(d) || len(d) < 2 || d[0] == d[1] {
		t.Errorf("%d repetitions-agree checks over instance digests %v", agree, d)
	}
	if n := len(again.Samples["run_s"]); n != 2*len(again.InstanceDigests) {
		t.Errorf("%d timed samples, want two per instance", n)
	}

	var line bytes.Buffer
	for _, perLayer := range []bool{false, true} {
		if err := printResultLine(&line, spec, again, perLayer); err != nil {
			t.Error(err)
		}
	}
}

func TestShardedWorkloadSharesItsSerialTwinsInputs(t *testing.T) {
	for _, w := range workloads {
		if w.serialRef == "" {
			continue
		}
		ref, ok := workloadByName(w.serialRef)
		if !ok {
			t.Fatalf("%s: serial twin %q is not defined", w.name, w.serialRef)
		}
		w.name, w.shards, w.serialRef = ref.name, ref.shards, ref.serialRef
		if w != ref {
			t.Errorf("%s differs from %s in more than the shard count: %+v vs %+v", w.name, ref.name, w, ref)
		}
	}
}

func TestFailedChildFailsAllItsChecks(t *testing.T) {
	spec := testSpec(t)
	spec.dir = t.TempDir()
	o := &options{spec: spec, seed: 1, seconds: 1, quick: true, timed: true,
		launch: func(string, workload, int64, bullet.Duration) (*runResult, error) {
			return nil, os.ErrDeadlineExceeded
		}}
	r := o.measure(workloads[0], nil)
	want := len(childChecks) * workloads[0].quick().instances
	if got := r.failed(); got != want || got != len(r.Checks) {
		t.Errorf("%d of %d checks failed, want all %d", got, len(r.Checks), want)
	}
}
