package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bullet"
)

// The parent process runs every measurement in a fresh child (this
// program re-executed with -child), one at a time, so peak memory and
// cold caches are per run. Child modes:
const (
	modeRun    = "run"    // set up, timed World.Run, report
	modeTraced = "traced" // the same with spans, slice counters and a CPU profile
	modeSetup  = "setup"  // set up only: one more setup_s sample
	modeProbes = "probes" // per-layer probes
)

// setupSamples is how many cold set-ups one measurement of a workload
// takes setup_s from; the timed repetitions supply the first of them.
const setupSamples = 5

// childChecks are the names of the checks every run child makes; a
// child that crashes or times out fails all of them.
var childChecks = []string{"delivered<=sent", "useful<=raw", "engine-events==total-events",
	"useful_kbps>0", "shards-as-requested"}

// options are one invocation's settings.
type options struct {
	spec    *benchSpec
	seed    int64
	seconds float64 // wall-clock budget of one repetition of a workload's instances on the reference box
	reps    int     // timed repetitions of every instance; 0 = 1
	quick   bool    // test scale
	timed   bool    // make the untraced, timed repetitions (end-to-end metrics)
	traced  bool    // make the traced run and the probes (per-layer metrics)
	golden  *goldenFile

	// launch runs one child; tests substitute an in-process call.
	launch func(mode string, w workload, seed int64, stream bullet.Duration) (*runResult, error)
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name    string  `json:"name"`
	Seed    int64   `json:"seed"`
	StreamS float64 `json:"virtual_stream_s"`
	// Samples holds, per metric, the values of the untraced timed
	// repetitions in run order (setup_s also those of the set-up-only
	// children). End-to-end metrics are their medians.
	Samples map[string][]float64 `json:"samples"`
	// Layer holds the per-layer values: probes, the traced run's
	// counters and profile attribution, and the derived ratios.
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// InstanceDigests holds the digest of each instance's simulated
	// outputs; Digest folds them into one.
	InstanceDigests []string `json:"instance_digests"`
	Digest          string   `json:"digest"`
	TracedDigest    string   `json:"traced_digest,omitempty"`
	TraceFile       string   `json:"trace_file,omitempty"`
	Checks          []check  `json:"checks"`

	// firstRunS holds run_s of every repetition of instance 0, the
	// instance the traced run and the sharded-versus-serial ratio use.
	firstRunS []float64
}

// value returns the reported value of a metric: a derived or probed or
// traced per-layer value, or the median of the untraced repetitions.
// End-to-end names are never looked up in the traced run.
func (r *workloadResult) value(name string) (float64, bool) {
	if s := r.Samples[name]; len(s) > 0 {
		return median(s), true
	}
	v, ok := r.Layer[name]
	return v, ok
}

func (r *workloadResult) fail(name, detail string) {
	r.Checks = append(r.Checks, check{Name: name, Detail: detail})
}

func (r *workloadResult) failed() int {
	n := 0
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// measure runs one workload's children and cross-checks them. done
// holds the workloads already measured in this invocation, for the
// sharded-versus-serial comparison.
func (o *options) measure(w workload, done map[string]*workloadResult) *workloadResult {
	stream := w.stream(o.seconds)
	if o.quick {
		w, stream = w.quick(), 5*bullet.Second
	}
	res := &workloadResult{Name: w.name, Seed: o.seed, StreamS: stream.ToSeconds(),
		Samples: make(map[string][]float64), InstanceDigests: make([]string, w.instances)}

	// run launches one run child on instance i and folds its checks in.
	run := func(mode string, w workload, i int) *runResult {
		r, err := o.launch(mode, w, instanceSeed(o.seed, i), stream)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s %s: %v\n", w.name, mode, err)
			for _, name := range childChecks {
				res.fail(mode+":"+name, err.Error())
			}
			return nil
		}
		for _, c := range r.Checks {
			c.Name = mode + ":" + c.Name
			res.Checks = append(res.Checks, c)
		}
		return r
	}
	// untraced makes one timed repetition of instance i; a repetition
	// of an instance already run must reproduce its digest.
	untraced := func(i int) {
		r := run(modeRun, w, i)
		if r == nil {
			return
		}
		for name, v := range r.Metrics {
			res.Samples[name] = append(res.Samples[name], v)
		}
		if i == 0 {
			res.firstRunS = append(res.firstRunS, r.Metrics["run_s"])
		}
		if first := res.InstanceDigests[i]; first == "" {
			res.InstanceDigests[i] = r.Digest
		} else {
			res.Checks = append(res.Checks, check{Name: "repetitions-agree", OK: r.Digest == first,
				Detail: r.Digest + " vs " + first})
		}
	}

	if o.timed {
		children := 0
		for rep := 0; rep < max(o.reps, 1); rep++ {
			for i := 0; i < w.instances; i++ {
				untraced(i)
				children++
			}
		}
		for ; children < setupSamples && !o.quick; children++ {
			r, err := o.launch(modeSetup, w, instanceSeed(o.seed, children%w.instances), stream)
			if err != nil {
				res.fail("setup", err.Error())
				continue
			}
			res.Samples["setup_s"] = append(res.Samples["setup_s"], r.Metrics["setup_s"])
		}
		res.Digest = combineDigests(res.InstanceDigests)
	}
	if o.traced {
		if res.InstanceDigests[0] == "" {
			untraced(0) // the untraced reference for the overhead and the digest
		}
		res.Layer = make(map[string]float64)
		if r, err := o.launch(modeProbes, w, instanceSeed(o.seed, 0), stream); err != nil {
			res.fail("probes", err.Error())
		} else {
			res.Layer = r.Metrics
		}
		if r := run(modeTraced, w, 0); r != nil {
			for name, v := range r.Metrics {
				res.Layer[name] = v
			}
			res.TracedDigest = r.Digest
			res.Checks = append(res.Checks, check{Name: "traced==untraced", OK: r.Digest == res.InstanceDigests[0],
				Detail: r.Digest + " vs " + res.InstanceDigests[0]})
			if len(res.firstRunS) > 0 {
				res.Layer["trace_overhead_frac"] = r.Metrics["run_s"]/median(res.firstRunS) - 1
			}
			if file, err := writeTrace(o.spec.outDir(), w.name, r.Trace); err != nil {
				res.fail("trace-file", err.Error())
			} else {
				res.TraceFile = file
			}
		}
		res.Layer["shard.speedup"] = 1
		if w.serialRef != "" {
			serialDigest, serialRunS := "", 0.0
			if ref := done[w.serialRef]; ref != nil && ref.StreamS == res.StreamS && len(ref.firstRunS) > 0 {
				serialDigest, serialRunS = ref.InstanceDigests[0], median(ref.firstRunS)
			} else {
				serial, _ := workloadByName(w.serialRef)
				if o.quick {
					serial = serial.quick()
				}
				if r := run(modeRun, serial, 0); r != nil {
					serialDigest, serialRunS = r.Digest, r.Metrics["run_s"]
				}
			}
			res.Checks = append(res.Checks, check{Name: "sharded==serial", OK: serialDigest == res.InstanceDigests[0],
				Detail: res.InstanceDigests[0] + " vs " + serialDigest})
			if len(res.firstRunS) > 0 && serialRunS > 0 {
				res.Layer["shard.speedup"] = serialRunS / median(res.firstRunS)
			}
		}
	}
	if want, ok := o.golden.digest(w.name, o.seed, res.StreamS, o.quick); ok && res.Digest != "" {
		res.Checks = append(res.Checks, check{Name: "golden", OK: res.Digest == want,
			Detail: res.Digest + " vs " + want})
	}
	return res
}

// combineDigests folds the instances' digests into the workload's; it
// is empty unless every instance ran.
func combineDigests(instances []string) string {
	if len(instances) == 1 {
		return instances[0]
	}
	h := sha256.New()
	for _, d := range instances {
		if d == "" {
			return ""
		}
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// childTimeout is how long one child may take before it is killed,
// which turns a hang into failed checks, not a stuck benchmark. The
// slowest child at the largest budget (-seconds 60) takes under a
// minute on the reference box.
const childTimeout = 90 * time.Second

// launchChild re-executes this program as one child and decodes the
// result it prints. An interrupt or SIGTERM to the driver kills the
// running child and fails every later one, so no child outlives it.
func launchChild(quick bool) func(string, workload, int64, bullet.Duration) (*runResult, error) {
	alive, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return func(mode string, w workload, seed int64, stream bullet.Duration) (*runResult, error) {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(alive, childTimeout)
		defer cancel()
		args := []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-stream", strconv.FormatInt(int64(stream/bullet.Second), 10)}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		err = cmd.Run() // waits for the child to end, killed or not
		if alive.Err() != nil {
			return nil, errors.New("interrupted")
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("timed out after %v", childTimeout)
		}
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(out.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("decode child result: %w", err)
		}
		return &r, nil
	}
}

// child is the body of a child process: it does what mode says and
// prints one runResult.
func child(mode string, w workload, seed int64, stream bullet.Duration, probeOps int) error {
	var r *runResult
	var err error
	switch mode {
	case modeRun, modeTraced:
		r, err = runChild(w, seed, stream, mode == modeTraced)
	case modeSetup:
		if _, err = w.build(seed, stream, nil); err == nil {
			r = &runResult{Metrics: map[string]float64{"setup_s": time.Since(processStart).Seconds()}}
		}
	case modeProbes:
		runtime.GOMAXPROCS(benchProcs())
		r = &runResult{}
		r.Metrics, err = runProbes(w, seed, probeOps)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// writeTrace writes a traced run's spans and slice counters to
// out/trace-<workload>.json.
func writeTrace(dir, workload string, t *traceData) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return "", err
	}
	file := filepath.Join(dir, "trace-"+workload+".json")
	return file, os.WriteFile(file, data, 0o644)
}

// environment records where a result set was measured.
type environment struct {
	GoVersion   string  `json:"go_version"`
	GOARCH      string  `json:"goarch"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Commit      string  `json:"commit"`
	LoadAvg1    float64 `json:"loadavg_1m_at_start"`
	LoadFlagged bool    `json:"load_exceeded_nproc"` // the machine was busy: host-clock numbers are suspect
}

func readEnvironment(repo string) environment {
	e := environment{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.LoadFlagged = e.LoadAvg1 > float64(e.NProc)
	// A checkout without git metadata has no commit to record.
	if _, err := os.Stat(filepath.Join(repo, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", repo, "rev-parse", "--short", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}
