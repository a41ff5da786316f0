// Package metrics collects the measurements the Bullet paper plots:
// per-node achieved bandwidth over time split into raw (all data
// received), useful (first-copy data), from-parent, and duplicate
// bytes, plus CDF snapshots of instantaneous bandwidth (Figure 8) and
// run-level summaries (duplicate ratio, control overhead).
package metrics

import (
	"math"
	"sort"

	"bullet/internal/nodeset"
	"bullet/internal/sim"
)

// Kind selects a byte counter category.
type Kind int

const (
	// Useful counts bytes of packets received for the first time.
	Useful Kind = iota
	// Raw counts all data bytes received, including duplicates.
	Raw
	// Parent counts data bytes received from the tree parent.
	Parent
	// Duplicate counts bytes of packets already held.
	Duplicate
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Useful:
		return "useful"
	case Raw:
		return "raw"
	case Parent:
		return "from-parent"
	case Duplicate:
		return "duplicate"
	}
	return "unknown"
}

type nodeSeries struct {
	buckets [numKinds][]uint64

	// Completion tracking (armed by SetCompletionTarget): distinct
	// useful packets received, and when the count hit the target.
	usefulPkts  uint64
	completedAt sim.Time
	completed   bool
}

// Collector accumulates byte counts into fixed-width time buckets.
// Per-node series live in a dense node-id-indexed table, so the
// per-packet Add path is an O(1) slice index and every aggregate walks
// nodes in ascending id order (the deterministic float-aggregation
// order the TSV goldens pin).
// In a sharded run a collector is written concurrently by all shards:
// Add only ever touches the per-node series of the executing shard's
// own nodes (pre-registered via Track at deploy, so the table never
// grows mid-run), and there is deliberately no cross-node mutable
// aggregate on the Add path — maxima and sums are computed on demand
// at read time, which happens only between runs or at barriers.
type Collector struct {
	bucket sim.Duration
	nodes  nodeset.Table[*nodeSeries]

	// target is the distinct-packet count at which a node completes a
	// finite workload (0 = streaming, no completion semantics).
	target uint64
}

// NewCollector creates a collector with the given bucket width
// (typically one second).
func NewCollector(bucket sim.Duration) *Collector {
	if bucket <= 0 {
		bucket = sim.Second
	}
	return &Collector{bucket: bucket}
}

// Track pre-registers a node so averages include it even if it never
// receives a byte.
func (c *Collector) Track(node int) {
	if !c.nodes.Contains(node) {
		c.nodes.Put(node, &nodeSeries{})
	}
}

// SetCompletionTarget arms per-node completion tracking: a node
// completes when its Useful (first-copy) packet count reaches pkts —
// the finite-workload semantics of fountain-coded file distribution,
// where any pkts distinct symbols decode the object. Every protocol
// records exactly one Useful Add per distinct packet, so the counter
// is the distinct-receipt count. Call before the run; a target of 0
// disables tracking (the streaming default).
func (c *Collector) SetCompletionTarget(pkts uint64) { c.target = pkts }

// CompletionTarget returns the armed target (0 = none).
func (c *Collector) CompletionTarget() uint64 { return c.target }

// CompletionTime returns when node received its target'th distinct
// packet, and whether it has yet.
func (c *Collector) CompletionTime(node int) (sim.Time, bool) {
	ns := c.nodes.At(node)
	if ns == nil || !ns.completed {
		return 0, false
	}
	return ns.completedAt, true
}

// Completed returns how many tracked nodes have finished the workload.
func (c *Collector) Completed() int {
	n := 0
	c.nodes.Range(func(_ int, ns *nodeSeries) bool {
		if ns.completed {
			n++
		}
		return true
	})
	return n
}

// CompletionCDF returns the sorted per-node completion times in
// seconds, over the nodes that completed — the time-to-finish curve
// finite-workload experiments plot. Nodes that never completed are
// absent; compare len(CompletionCDF()) against Nodes() for the
// completion fraction.
func (c *Collector) CompletionCDF() []float64 {
	var out []float64
	c.nodes.Range(func(_ int, ns *nodeSeries) bool {
		if ns.completed {
			out = append(out, ns.completedAt.ToSeconds())
		}
		return true
	})
	sort.Float64s(out)
	return out
}

// Add records size bytes of the given kind for node at time now.
func (c *Collector) Add(now sim.Time, node int, k Kind, size int) {
	ns := c.nodes.At(node)
	if ns == nil {
		ns = &nodeSeries{}
		c.nodes.Put(node, ns)
	}
	if c.target > 0 && k == Useful {
		ns.usefulPkts++
		if ns.usefulPkts == c.target {
			ns.completedAt, ns.completed = now, true
		}
	}
	idx := int(now / c.bucket)
	s := ns.buckets[k]
	for len(s) <= idx {
		s = append(s, 0)
	}
	s[idx] += uint64(size)
	ns.buckets[k] = s
}

// Point is one sample of a bandwidth-versus-time series.
type Point struct {
	T    float64 // bucket start, seconds
	Kbps float64 // mean across nodes
	Std  float64 // standard deviation across nodes
}

// maxIdx returns the highest populated bucket index across all nodes
// and kinds (-1 when nothing was recorded). Computed on demand so the
// per-packet Add path carries no cross-node shared write.
func (c *Collector) maxIdx() int {
	max := -1
	c.nodes.Range(func(_ int, ns *nodeSeries) bool {
		for k := Kind(0); k < numKinds; k++ {
			if n := len(ns.buckets[k]); n-1 > max {
				max = n - 1
			}
		}
		return true
	})
	return max
}

// Series returns the across-node mean (and standard deviation) of
// per-node bandwidth of the given kind for every bucket, in Kbps —
// the series plotted in Figures 6, 7 and 9-15.
func (c *Collector) Series(k Kind) []Point {
	n := c.nodes.Len()
	if n == 0 {
		return nil
	}
	maxIdx := c.maxIdx()
	bucketSec := c.bucket.ToSeconds()
	out := make([]Point, maxIdx+1)
	for i := 0; i <= maxIdx; i++ {
		var sum, sumsq float64
		c.nodes.Range(func(_ int, ns *nodeSeries) bool {
			var v float64
			if i < len(ns.buckets[k]) {
				v = float64(ns.buckets[k][i]) * 8 / 1000 / bucketSec // Kbps
			}
			sum += v
			sumsq += v * v
			return true
		})
		mean := sum / float64(n)
		variance := sumsq/float64(n) - mean*mean
		if variance < 0 {
			variance = 0
		}
		out[i] = Point{T: float64(i) * bucketSec, Kbps: mean, Std: math.Sqrt(variance)}
	}
	return out
}

// NodeSeries returns one node's bandwidth series of the given kind.
func (c *Collector) NodeSeries(node int, k Kind) []Point {
	ns := c.nodes.At(node)
	if ns == nil {
		return nil
	}
	maxIdx := c.maxIdx()
	bucketSec := c.bucket.ToSeconds()
	out := make([]Point, maxIdx+1)
	for i := 0; i <= maxIdx; i++ {
		var v float64
		if i < len(ns.buckets[k]) {
			v = float64(ns.buckets[k][i]) * 8 / 1000 / bucketSec
		}
		out[i] = Point{T: float64(i) * bucketSec, Kbps: v}
	}
	return out
}

// CDFAt returns the sorted per-node instantaneous bandwidths (Kbps) of
// kind k in the bucket containing time t — Figure 8's CDF data.
func (c *Collector) CDFAt(t sim.Time, k Kind) []float64 {
	idx := int(t / c.bucket)
	bucketSec := c.bucket.ToSeconds()
	var out []float64
	c.nodes.Range(func(_ int, ns *nodeSeries) bool {
		var v float64
		if idx >= 0 && idx < len(ns.buckets[k]) {
			v = float64(ns.buckets[k][idx]) * 8 / 1000 / bucketSec
		}
		out = append(out, v)
		return true
	})
	sort.Float64s(out)
	return out
}

// MeanOver returns the across-node, across-bucket mean bandwidth in
// Kbps of kind k over [from, to).
func (c *Collector) MeanOver(from, to sim.Time, k Kind) float64 {
	lo, hi, ok := c.bucketRange(from, to)
	if !ok || c.nodes.Len() == 0 {
		return 0
	}
	// One running sum over (node, bucket) in ascending order — float
	// addition order is part of the determinism contract, so this must
	// accumulate exactly like the pre-refactor collector.
	var sum float64
	c.nodes.Range(func(_ int, ns *nodeSeries) bool {
		for i := lo; i < hi; i++ {
			if i < len(ns.buckets[k]) {
				sum += float64(ns.buckets[k][i])
			}
		}
		return true
	})
	return c.meanKbps(sum, lo, hi, c.nodes.Len())
}

// MeanOverNodes is MeanOver restricted to the given node ids — used by
// churn experiments to measure survivors separately from crashed
// nodes. Ids never tracked contribute zero, like tracked nodes that
// never received a byte. Callers must pass nodes in a deterministic
// order (float aggregation order is behaviourally significant).
func (c *Collector) MeanOverNodes(nodes []int, from, to sim.Time, k Kind) float64 {
	lo, hi, ok := c.bucketRange(from, to)
	if !ok || len(nodes) == 0 {
		return 0
	}
	var sum float64
	for _, id := range nodes {
		ns := c.nodes.At(id)
		if ns == nil {
			continue
		}
		for i := lo; i < hi; i++ {
			if i < len(ns.buckets[k]) {
				sum += float64(ns.buckets[k][i])
			}
		}
	}
	return c.meanKbps(sum, lo, hi, len(nodes))
}

// MinOverNodes returns the smallest per-node mean bandwidth in Kbps
// of kind k over [from, to) among the given nodes — the goodput floor
// the worst-off node in the set actually sees, which a mean can hide.
// Untracked nodes count as zero. Returns 0 for an empty node list or
// window.
func (c *Collector) MinOverNodes(nodes []int, from, to sim.Time, k Kind) float64 {
	lo, hi, ok := c.bucketRange(from, to)
	if !ok || len(nodes) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, id := range nodes {
		var sum float64
		if ns := c.nodes.At(id); ns != nil {
			for i := lo; i < hi; i++ {
				if i < len(ns.buckets[k]) {
					sum += float64(ns.buckets[k][i])
				}
			}
		}
		if m := c.meanKbps(sum, lo, hi, 1); m < min {
			min = m
		}
	}
	return min
}

// Excluding returns nodes minus excluded, preserving order — the
// honest-subset filter for adversarial runs (pass a deployment's
// colluders as excluded). Neither input is mutated.
func Excluding(nodes, excluded []int) []int {
	if len(excluded) == 0 {
		return append([]int(nil), nodes...)
	}
	drop := make(map[int]bool, len(excluded))
	for _, id := range excluded {
		drop[id] = true
	}
	out := make([]int, 0, len(nodes))
	for _, id := range nodes { // input order preserved: no map iteration
		if !drop[id] {
			out = append(out, id)
		}
	}
	return out
}

// bucketRange clips [from, to) to populated buckets.
func (c *Collector) bucketRange(from, to sim.Time) (lo, hi int, ok bool) {
	lo, hi = int(from/c.bucket), int(to/c.bucket)
	if m := c.maxIdx(); hi > m+1 {
		hi = m + 1
	}
	return lo, hi, hi > lo
}

func (c *Collector) meanKbps(sum float64, lo, hi, nodes int) float64 {
	return sum * 8 / 1000 / c.bucket.ToSeconds() / float64(hi-lo) / float64(nodes)
}

// Total returns the total bytes of kind k across all nodes.
func (c *Collector) Total(k Kind) uint64 {
	var sum uint64
	c.nodes.Range(func(_ int, ns *nodeSeries) bool { // integer sum: order-independent
		for _, v := range ns.buckets[k] {
			sum += v
		}
		return true
	})
	return sum
}

// DuplicateRatio returns duplicate bytes / raw bytes (the paper reports
// <10% for Bullet).
func (c *Collector) DuplicateRatio() float64 {
	raw := c.Total(Raw)
	if raw == 0 {
		return 0
	}
	return float64(c.Total(Duplicate)) / float64(raw)
}
