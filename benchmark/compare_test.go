package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestVerdictAtTheBoundEdges(t *testing.T) {
	lower := metricSpec{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, cand []float64
		want       string
	}{
		// Unpaired: the sets ran different inputs, each side's own scatter counts.
		{"equal", lower, []float64{100, 100, 100}, []float64{100, 100, 100}, verdictOK},
		{"exactly at the bound", lower, []float64{100}, []float64{110}, verdictOK},
		{"just beyond the bound", lower, []float64{100}, []float64{110.1}, verdictWorse},
		{"better by more than the bound", lower, []float64{100}, []float64{50}, verdictOK},
		{"higher is better, lower by more than the bound", higher, []float64{100}, []float64{89}, verdictWorse},
		{"higher is better, higher", higher, []float64{100}, []float64{150}, verdictOK},
		{"base spread wider than the bound", lower, []float64{90, 100, 111}, []float64{100, 100, 100}, verdictUnresolved},
		{"candidate spread wider than the bound", lower, []float64{100, 100, 100}, []float64{120, 130, 145}, verdictUnresolved},
		{"spread within the bound", lower, []float64{95, 100, 105}, []float64{100, 101, 102}, verdictOK},
		{"setup_s doubles under the absolute floor", setup, []float64{0.010, 0.011, 0.012}, []float64{0.020, 0.022, 0.030}, verdictOK},
		{"setup_s worse by exactly the floor", setup, []float64{0.10}, []float64{0.15}, verdictOK},
		{"setup_s worse beyond bound and floor", setup, []float64{0.50, 0.50, 0.51}, []float64{0.70, 0.71, 0.72}, verdictWorse},
		{"setup_s within the bound above the floor", setup, []float64{0.50}, []float64{0.60}, verdictOK},
		{"setup_s spread wide and above the floor", setup, []float64{0.30, 0.50, 0.75}, []float64{0.50, 0.50, 0.50}, verdictUnresolved},
		{"spread wider than the bound however many samples", lower, []float64{88, 92, 96, 100, 104, 108, 112, 116, 120}, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100}, verdictUnresolved},
		{"no base samples", lower, nil, []float64{100}, verdictUnresolved},
		{"no candidate samples", lower, []float64{100}, nil, verdictUnresolved},
	} {
		if got := verdict(tc.m, tc.base, tc.cand, false); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	// Paired: instance i of one set ran the inputs of instance i of the
	// other, so inputs that differ threefold prove nothing either way;
	// the scatter of the ratios does.
	for _, tc := range []struct {
		name       string
		base, cand []float64
		want       string
	}{
		{"instances differ, ratios agree", []float64{50, 100, 150}, []float64{52, 104, 156}, verdictOK},
		{"every instance worse beyond the bound", []float64{50, 100, 150}, []float64{56, 112, 168}, verdictWorse},
		{"ratios scatter within the bound", []float64{50, 100, 150}, []float64{50, 105, 164}, verdictOK},
		{"ratios scatter beyond the bound", []float64{50, 100, 150}, []float64{40, 100, 165}, verdictUnresolved},
	} {
		if got := verdict(lower, tc.base, tc.cand, true); got != tc.want {
			t.Errorf("paired, %s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := verdict(setup, []float64{0.010, 0.020}, []float64{0.010, 0.030}, true); got != verdictOK {
		t.Errorf("paired setup_s scattering under the absolute floor: verdict %s, want ok", got)
	}
}

// TestIQRMatchesPythonQuantiles holds iqr against
// statistics.quantiles(xs, n=4), by which the driver measures spread.
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
		{[]float64{3, 1}, 3},
		{[]float64{90, 100, 111}, 21},
		{[]float64{0.951, 1.22, 1.096, 0.792, 0.796, 0.954}, 0.332},
		{[]float64{7}, 0},
	} {
		if got := iqr(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("iqr(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCompareSimulatedOutputsExactly(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd:  []metricSpec{{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}},
	}
	set := func(eventsPerS, useful float64, digest string) *resultSet {
		return &resultSet{Workloads: []*workloadResult{{Name: "w", Seed: 1, StreamS: 5, Digest: digest,
			Samples: map[string][]float64{"events_per_s": {eventsPerS}, "useful_kbps": {useful}}}}}
	}
	var out bytes.Buffer
	if !compare(&out, spec, set(100, 400, "d"), set(95, 400, "d")) {
		t.Errorf("a 5%% slowdown within a 10%% bound should compare clean:\n%s", &out)
	}
	if !strings.Contains(out.String(), "0.9500 of 100") {
		t.Errorf("the ratio is not printed with its base:\n%s", &out)
	}
	if compare(&out, spec, set(100, 400, "d"), set(80, 400, "d")) {
		t.Error("a 20% slowdown should not compare clean")
	}
	if compare(&out, spec, set(100, 400, "d"), set(100, 400.0000001, "d")) {
		t.Error("a simulated metric that differs in the last digits should not compare clean")
	}
	if compare(&out, spec, set(100, 400, "d"), set(100, 400, "e")) {
		t.Error("differing digests should not compare clean")
	}
	other := set(100, 300, "e")
	other.Workloads[0].Seed = 2
	if !compare(&out, spec, set(100, 400, "d"), other) {
		t.Error("sets of different seeds are not compared on simulated outputs")
	}
}

// TestCompareNeverSkipsWhatASetLacks: a set that lost a workload, a
// metric or a check proves nothing, so it does not compare clean.
func TestCompareNeverSkipsWhatASetLacks(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specLoad{{Name: "w"}, {Name: "x"}},
		EndToEnd:  []metricSpec{{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}},
	}
	full := func() *resultSet {
		rs := &resultSet{}
		for _, name := range []string{"w", "x"} {
			rs.Workloads = append(rs.Workloads, &workloadResult{Name: name, Seed: 1, StreamS: 5, Digest: "d",
				Samples: map[string][]float64{"events_per_s": {100, 101, 99}}})
		}
		return rs
	}
	var out bytes.Buffer
	if !compare(&out, spec, full(), full()) {
		t.Fatalf("two complete, equal sets should compare clean:\n%s", &out)
	}
	for name, damage := range map[string]func(*resultSet){
		"workload missing": func(rs *resultSet) { rs.Workloads = rs.Workloads[:1] },
		"metric missing":   func(rs *resultSet) { delete(rs.Workloads[1].Samples, "events_per_s") },
		"check failed":     func(rs *resultSet) { rs.ChecksAttempted, rs.ChecksFailed = 10, 1 },
	} {
		for _, side := range []string{"base", "candidate"} {
			base, cand := full(), full()
			if side == "base" {
				damage(base)
			} else {
				damage(cand)
			}
			out.Reset()
			if compare(&out, spec, base, cand) {
				t.Errorf("%s in the %s set compares clean:\n%s", name, side, &out)
			}
			if name != "check failed" && !strings.Contains(out.String(), verdictUnresolved) {
				t.Errorf("%s in the %s set is not reported unresolved:\n%s", name, side, &out)
			}
		}
	}
}
