package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bullet"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bullet/internal/sim.(*Engine).exec":                            "bullet/internal/sim",
		"bullet/internal/sim.NewEngine":                                 "bullet/internal/sim",
		"bullet/internal/arena.(*Arena[go.shape.struct { a int }]).Get": "bullet/internal/arena",
		"bullet/internal/nodeset.(*Table[go.shape.*uint8]).At":          "bullet/internal/nodeset",
		"bullet/internal/core.Deploy.func1":                             "bullet/internal/core",
		"bullet.(*World).Run":                                           "bullet",
		"runtime.mallocgc":                                              "runtime",
		"math/rand.(*Rand).Int63":                                       "math/rand",
		"sort.Slice":                                                    "sort",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestEveryInternalPackageHasALayer walks the simulator's source tree:
// a package added there without a layer would silently fall into
// runtime.other.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			if _, ok := layerOfPackage["bullet/internal/"+d.Name()]; !ok {
				t.Errorf("bullet/internal/%s maps to no layer", d.Name())
			}
		}
	}
	grouped := make(map[string]int)
	for _, layers := range budgetGroups {
		for _, l := range layers {
			grouped[l]++
		}
	}
	for _, layer := range layerOfPackage {
		if !slices.Contains(cpuLayers, layer) {
			t.Errorf("layer %s is not reported as a cpu_frac", layer)
		}
		if grouped[layer] != 1 {
			t.Errorf("layer %s is in %d per-event budget groups, want 1", layer, grouped[layer])
		}
	}
}

// TestProfileAttribution profiles a traced run long enough to collect
// samples and checks the attribution accounts for all of them.
func TestProfileAttribution(t *testing.T) {
	w, _ := workloadByName("bullet-steady")
	const stream = 400 * bullet.Second
	r, err := runChild(w.quick(), 42, stream, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Trace
	if tr.CPUSamples < 10 {
		t.Skipf("only %d CPU samples", tr.CPUSamples)
	}
	if frac := float64(tr.CPUUnattributed) / float64(tr.CPUSamples); frac >= 0.02 {
		t.Errorf("%.1f%% of samples are in simulator packages without a layer", 100*frac)
	}
	var sum float64
	for _, layer := range cpuLayers {
		sum += r.Metrics[layer+".cpu_frac"]
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("cpu_frac sums to %v, want 1 ± 0.02", sum)
	}
	if r.Metrics["sim.cpu_frac"] == 0 {
		t.Errorf("no sample attributed to the event queue: %v", tr.CPUByLayer)
	}

	spans := make(map[string]int)
	for _, s := range tr.Spans {
		spans[s.Name]++
		if s.EndNS < s.StartNS || s.Run != tr.Run {
			t.Errorf("span %+v is malformed", s)
		}
	}
	for _, name := range []string{"world.new", "overlay.tree", "core.deploy", "run", "report"} {
		if spans[name] != 1 {
			t.Errorf("%d %s spans, want 1", spans[name], name)
		}
	}
	if want := int((streamFrom + stream) / bullet.Second); spans["run.slice"] != want || len(tr.Slices) != want {
		t.Errorf("%d run.slice spans and %d slice samples, want %d", spans["run.slice"], len(tr.Slices), want)
	}
	var events uint64
	for _, s := range tr.Slices {
		events += s.Events
	}
	if float64(events) != r.Metrics["sim.events"] {
		t.Errorf("slices count %d events, the run %v", events, r.Metrics["sim.events"])
	}
}

func TestSelfTime(t *testing.T) {
	self := selfNS([]span{
		{ID: 1, Name: "run", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "run.slice", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "run.slice", StartNS: 50, EndNS: 90},
	})
	if self[1] != 30 || self[2] != 30 || self[3] != 40 {
		t.Errorf("self times %v, want run 30, slices 30 and 40", self)
	}
}
