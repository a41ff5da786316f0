package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Environment     environment       `json:"environment"`
	Seed            int64             `json:"seed"`
	Seconds         float64           `json:"seconds"`
	Quick           bool              `json:"quick,omitempty"`
	Workloads       []*workloadResult `json:"workloads"`
	ChecksAttempted int               `json:"checks_attempted"`
	ChecksFailed    int               `json:"checks_failed"`
	CheckFailFrac   float64           `json:"check_fail_frac"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rs, nil
}

func (rs *resultSet) workload(name string) *workloadResult {
	for _, w := range rs.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// simulated names the metrics that are pure functions of the inputs.
// For equal seeds and spans, two result sets must agree on them bit
// for bit; a change meant only to speed the simulator up must leave
// them, and the digests, identical.
var simulated = []string{"useful_kbps", "useful_kbps_p10", "dup_ratio", "control_kbps", "net_delivered_frac",
	"sim.events", "sim.pending_peak", "netem.congestion_drop_frac", "netem.loss_drop_frac",
	"netem.linkdown_drops", "netem.rerouted", "netem.delivered_pkts", "core.useful_frac", "core.dup_ratio",
	"shard.k", "shard.imbalance", "shard.global_events_frac"}

// setupFloorS is the absolute change below which setup_s never counts
// as worse: a 15 ms set-up moves by more than any relative bound from
// process start-up alone.
const setupFloorS = 0.05

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges the candidate's samples against the base's for one
// bounded metric: unresolved when a side has no samples or the
// run-to-run spread is wider than the bound, worse when the candidate's
// median is worse than the base's by more than the bound, ok otherwise.
//
// The samples of a result set are its instances, whose inputs differ.
// When both sets ran the same inputs (paired), sample i of one answers
// sample i of the other, and the spread that counts is that of the
// candidate/base ratios: the host's noise, not the inputs'. Otherwise
// it is the wider of the two sides' own.
func verdict(m metricSpec, base, cand []float64, paired bool) string {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved
	}
	a, b := median(base), median(cand)
	floor := 0.0
	if m.Name == "setup_s" {
		floor = setupFloorS
	}
	var spread float64 // interquartile range as a share of the median
	if paired {
		ratios := make([]float64, len(base))
		for i := range base {
			ratios[i] = cand[i] / base[i]
		}
		spread = iqr(ratios) / median(ratios)
	} else {
		spread = max(iqr(base)/a, iqr(cand)/b)
	}
	if spread > m.Bound && spread*a > floor {
		return verdictUnresolved
	}
	worse := b - a
	if m.Better == "higher" {
		worse = a - b
	}
	if worse > m.Bound*math.Abs(a) && worse > floor {
		return verdictWorse
	}
	return verdictOK
}

// iqr returns the distance between the first and the third quartile as
// Python's statistics.quantiles(xs, n=4) gives them, which is how the
// guide and the driver define a spread; 0 for fewer than two values.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}

// compare prints one row per (workload, end-to-end metric) of two
// result sets, then the exact comparison of the simulated outputs, and
// reports whether the candidate is clean: no row worse or unresolved,
// no simulated output that differs, no failed check in either set. A
// workload or metric that either set lacks is unresolved, not skipped:
// a set that lost a run proves nothing about it.
func compare(out io.Writer, spec *benchSpec, base, cand *resultSet) (clean bool) {
	clean = true
	for _, side := range []struct {
		name string
		set  *resultSet
	}{{"base", base}, {"candidate", cand}} {
		if side.set.ChecksFailed > 0 {
			clean = false
			fmt.Fprintf(out, "%s: %d of %d checks failed\n", side.name, side.set.ChecksFailed, side.set.ChecksAttempted)
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tcandidate\tcandidate/base\tbound\tverdict")
	for _, load := range spec.Workloads {
		a, b := base.workload(load.Name), cand.workload(load.Name)
		if a == nil || b == nil {
			clean = false
			fmt.Fprintf(tw, "%s\t(not in both sets)\t\t\t\t\t\t%s\n", load.Name, verdictUnresolved)
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := a.Samples[m.Name], b.Samples[m.Name]
			paired := a.Seed == b.Seed && a.StreamS == b.StreamS && len(sa) == len(sb)
			v := verdict(m, sa, sb, paired)
			clean = clean && v == verdictOK
			if len(sa) == 0 || len(sb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t(%d samples)\t(%d samples)\t\t%.2f\t%s\n", load.Name, m.Name, m.Unit,
					len(sa), len(sb), m.Bound, v)
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f of %.6g\t%.2f\t%s\n", load.Name, m.Name, m.Unit,
				median(sa), median(sb), median(sb)/median(sa), median(sa), m.Bound, v)
		}
	}
	tw.Flush()

	fmt.Fprintln(out)
	for _, load := range spec.Workloads {
		a, b := base.workload(load.Name), cand.workload(load.Name)
		if a == nil || b == nil {
			continue
		}
		if a.Seed != b.Seed || a.StreamS != b.StreamS {
			fmt.Fprintf(out, "%s: seeds or spans differ, simulated outputs not compared\n", load.Name)
			continue
		}
		var differ []string
		if a.Digest != b.Digest || a.TracedDigest != b.TracedDigest {
			differ = append(differ, "digest")
		}
		for _, name := range simulated {
			va, oka := a.value(name)
			vb, okb := b.value(name)
			if oka != okb || math.Float64bits(va) != math.Float64bits(vb) {
				differ = append(differ, fmt.Sprintf("%s (%v vs %v)", name, va, vb))
			}
		}
		if len(differ) == 0 {
			fmt.Fprintf(out, "%s: digest and %d simulated metrics identical\n", load.Name, len(simulated))
		} else {
			clean = false
			fmt.Fprintf(out, "%s: simulated outputs differ: %v\n", load.Name, differ)
		}
	}
	return clean
}

func writeResultSet(path string, rs *resultSet) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
