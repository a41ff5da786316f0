package metrics

import (
	"testing"

	"bullet/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	c := NewCollector(sim.Second)
	// Node 1 receives 125000 bytes in second 0 => 1000 Kbps.
	c.Add(500*sim.Millisecond, 1, Useful, 125000)
	c.Add(1500*sim.Millisecond, 1, Useful, 62500) // 500 Kbps in second 1
	s := c.Series(Useful)
	if len(s) != 2 {
		t.Fatalf("series length %d", len(s))
	}
	if s[0].Kbps != 1000 || s[1].Kbps != 500 {
		t.Fatalf("series %+v", s)
	}
	if s[0].T != 0 || s[1].T != 1 {
		t.Fatalf("timestamps %+v", s)
	}
}

func TestSeriesMeanAcrossNodes(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Add(0, 1, Useful, 125000) // 1000 Kbps
	c.Add(0, 2, Useful, 0)      // 0 Kbps (explicit zero via Track)
	c.Track(2)
	s := c.Series(Useful)
	if s[0].Kbps != 500 {
		t.Fatalf("mean %v want 500", s[0].Kbps)
	}
	if s[0].Std != 500 {
		t.Fatalf("std %v want 500", s[0].Std)
	}
}

func TestTrackIncludesSilentNodes(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Track(1)
	c.Track(2)
	c.Add(0, 1, Useful, 125000)
	if got := c.Series(Useful)[0].Kbps; got != 500 {
		t.Fatalf("mean with silent node %v", got)
	}
	if c.nodes.Len() != 2 {
		t.Fatalf("nodes=%d", c.nodes.Len())
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Add(10*sim.Second, 1, Useful, 125000)
	c.Add(10*sim.Second, 2, Useful, 62500)
	c.Track(3)
	cdf := c.CDFAt(10*sim.Second+500*sim.Millisecond, Useful)
	if len(cdf) != 3 {
		t.Fatalf("cdf size %d", len(cdf))
	}
	if cdf[0] != 0 || cdf[1] != 500 || cdf[2] != 1000 {
		t.Fatalf("cdf %v", cdf)
	}
}

func TestMeanOver(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Add(0, 1, Raw, 125000)
	c.Add(sim.Second, 1, Raw, 125000)
	c.Add(2*sim.Second, 1, Raw, 0)
	got := c.MeanOver(0, 2*sim.Second, Raw)
	if got != 1000 {
		t.Fatalf("MeanOver=%v want 1000", got)
	}
	if c.MeanOver(5*sim.Second, 4*sim.Second, Raw) != 0 {
		t.Fatal("inverted range should be 0")
	}
}

func TestDuplicateRatio(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Add(0, 1, Raw, 1000)
	c.Add(0, 1, Duplicate, 100)
	if r := c.DuplicateRatio(); r != 0.1 {
		t.Fatalf("ratio %v", r)
	}
	empty := NewCollector(sim.Second)
	if empty.DuplicateRatio() != 0 {
		t.Fatal("empty ratio nonzero")
	}
}

func TestTotals(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Add(0, 1, Parent, 10)
	c.Add(3*sim.Second, 2, Parent, 20)
	if c.Total(Parent) != 30 {
		t.Fatalf("total %d", c.Total(Parent))
	}
}

func TestNodeSeries(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Add(0, 7, Useful, 125000)
	c.Add(sim.Second, 8, Useful, 125000)
	s := c.NodeSeries(7, Useful)
	if len(s) != 2 || s[0].Kbps != 1000 || s[1].Kbps != 0 {
		t.Fatalf("node series %+v", s)
	}
	if c.NodeSeries(99, Useful) != nil {
		t.Fatal("series for unknown node")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Useful: "useful", Raw: "raw", Parent: "from-parent", Duplicate: "duplicate"} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
}

// Window-edge behavior of MeanOver: degenerate, empty, and
// out-of-range windows must all return 0 rather than NaN or panic.
func TestMeanOverWindowEdges(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Track(1)
	c.Track(2)
	c.Add(0, 1, Useful, 125000)            // 1000 Kbps in bucket 0
	c.Add(5*sim.Second, 2, Useful, 250000) // 2000 Kbps in bucket 5

	// start == end: zero-width window.
	if got := c.MeanOver(3*sim.Second, 3*sim.Second, Useful); got != 0 {
		t.Errorf("zero-width window = %v, want 0", got)
	}
	// Inverted window.
	if got := c.MeanOver(10*sim.Second, 2*sim.Second, Useful); got != 0 {
		t.Errorf("inverted window = %v, want 0", got)
	}
	// Entirely beyond the recorded data: clamped to nothing.
	if got := c.MeanOver(100*sim.Second, 200*sim.Second, Useful); got != 0 {
		t.Errorf("out-of-range window = %v, want 0", got)
	}
	// Window covering only empty buckets between the two samples.
	if got := c.MeanOver(sim.Second, 5*sim.Second, Useful); got != 0 {
		t.Errorf("empty-bucket window = %v, want 0", got)
	}
	// A window extending past the last bucket clamps to recorded data:
	// bucket 5 holds 2000 Kbps on one of two nodes -> 1000 Kbps mean.
	if got := c.MeanOver(5*sim.Second, 60*sim.Second, Useful); got != 1000 {
		t.Errorf("clamped window = %v, want 1000", got)
	}
	// Full window: 1000 + 2000 Kbps over 6 buckets and 2 nodes.
	want := 3000.0 / 6 / 2
	if got := c.MeanOver(0, 6*sim.Second, Useful); got != want {
		t.Errorf("full window = %v, want %v", got, want)
	}
}

// An empty collector (no tracked nodes, no samples) reports 0 for any
// window.
func TestMeanOverEmptyCollector(t *testing.T) {
	c := NewCollector(sim.Second)
	if got := c.MeanOver(0, 10*sim.Second, Useful); got != 0 {
		t.Errorf("empty collector = %v, want 0", got)
	}
	if got := c.MeanOver(0, 0, Raw); got != 0 {
		t.Errorf("empty collector zero window = %v, want 0", got)
	}
	if c.nodes.Len() != 0 {
		t.Errorf("empty collector tracks %d nodes", c.nodes.Len())
	}
}

func TestMeanOverNodes(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Track(1)
	c.Track(2)
	c.Track(3)
	c.Add(0, 1, Useful, 125000) // 1000 Kbps
	c.Add(0, 2, Useful, 250000) // 2000 Kbps

	// Subset mean over one bucket.
	if got := c.MeanOverNodes([]int{1, 2}, 0, sim.Second, Useful); got != 1500 {
		t.Errorf("subset mean = %v, want 1500", got)
	}
	// A node with no bytes dilutes the mean.
	if got := c.MeanOverNodes([]int{1, 3}, 0, sim.Second, Useful); got != 500 {
		t.Errorf("diluted mean = %v, want 500", got)
	}
	// Unknown ids contribute zero instead of panicking.
	if got := c.MeanOverNodes([]int{1, 99}, 0, sim.Second, Useful); got != 500 {
		t.Errorf("unknown-id mean = %v, want 500", got)
	}
	// Empty node set and degenerate windows.
	if got := c.MeanOverNodes(nil, 0, sim.Second, Useful); got != 0 {
		t.Errorf("nil node set = %v, want 0", got)
	}
	if got := c.MeanOverNodes([]int{1}, sim.Second, sim.Second, Useful); got != 0 {
		t.Errorf("zero-width window = %v, want 0", got)
	}
	// Consistency with MeanOver when the set is all tracked nodes.
	all := c.MeanOver(0, sim.Second, Useful)
	if got := c.MeanOverNodes([]int{1, 2, 3}, 0, sim.Second, Useful); got != all {
		t.Errorf("MeanOverNodes(all) = %v, MeanOver = %v", got, all)
	}
}

func TestMinOverNodes(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Track(1)
	c.Track(2)
	c.Track(3)
	c.Add(0, 1, Useful, 125000) // 1000 Kbps
	c.Add(0, 2, Useful, 250000) // 2000 Kbps
	c.Add(0, 3, Useful, 62500)  // 500 Kbps

	if got := c.MinOverNodes([]int{1, 2, 3}, 0, sim.Second, Useful); got != 500 {
		t.Errorf("min = %v, want 500", got)
	}
	if got := c.MinOverNodes([]int{1, 2}, 0, sim.Second, Useful); got != 1000 {
		t.Errorf("subset min = %v, want 1000", got)
	}
	// Unknown ids count as zero — a starved node must not be hidden.
	if got := c.MinOverNodes([]int{1, 99}, 0, sim.Second, Useful); got != 0 {
		t.Errorf("unknown-id min = %v, want 0", got)
	}
	// Empty node set and degenerate windows.
	if got := c.MinOverNodes(nil, 0, sim.Second, Useful); got != 0 {
		t.Errorf("nil node set = %v, want 0", got)
	}
	if got := c.MinOverNodes([]int{1}, sim.Second, sim.Second, Useful); got != 0 {
		t.Errorf("zero-width window = %v, want 0", got)
	}
	// A single node's min equals its mean.
	if got, want := c.MinOverNodes([]int{2}, 0, sim.Second, Useful), c.MeanOverNodes([]int{2}, 0, sim.Second, Useful); got != want {
		t.Errorf("single-node min = %v, mean = %v", got, want)
	}
}

func TestExcluding(t *testing.T) {
	nodes := []int{5, 1, 9, 3, 7}
	got := Excluding(nodes, []int{9, 5, 42})
	if want := []int{1, 3, 7}; !equalInts(got, want) {
		t.Errorf("Excluding = %v, want %v", got, want)
	}
	// Nil exclusion copies rather than aliasing the input.
	cp := Excluding(nodes, nil)
	if !equalInts(cp, nodes) {
		t.Errorf("Excluding(nil) = %v, want %v", cp, nodes)
	}
	cp[0] = -1
	if nodes[0] != 5 {
		t.Error("Excluding aliased its input slice")
	}
	if got := Excluding(nil, []int{1}); len(got) != 0 {
		t.Errorf("Excluding(nil nodes) = %v, want empty", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompletionTracking(t *testing.T) {
	c := NewCollector(sim.Second)
	c.Track(1)
	c.Track(2)
	c.Track(3)
	c.SetCompletionTarget(3)
	if got := c.CompletionTarget(); got != 3 {
		t.Fatalf("CompletionTarget = %d, want 3", got)
	}
	// Node 1 completes at t=5s on its third Useful packet; duplicates
	// and raw bytes never count.
	c.Add(1*sim.Second, 1, Useful, 1500)
	c.Add(2*sim.Second, 1, Duplicate, 1500)
	c.Add(3*sim.Second, 1, Raw, 1500)
	c.Add(4*sim.Second, 1, Useful, 1500)
	if _, done := c.CompletionTime(1); done {
		t.Fatal("node 1 completed after 2 useful packets, target is 3")
	}
	c.Add(5*sim.Second, 1, Useful, 1500)
	at, done := c.CompletionTime(1)
	if !done || at != 5*sim.Second {
		t.Fatalf("CompletionTime(1) = (%v, %v), want (5s, true)", at, done)
	}
	// Extra packets do not move the completion time.
	c.Add(9*sim.Second, 1, Useful, 1500)
	if at, _ := c.CompletionTime(1); at != 5*sim.Second {
		t.Errorf("completion time moved to %v after extra packets", at)
	}
	// Node 2 completes later; node 3 never does.
	c.Add(6*sim.Second, 2, Useful, 100)
	c.Add(7*sim.Second, 2, Useful, 100)
	c.Add(8*sim.Second, 2, Useful, 100)
	if got := c.Completed(); got != 2 {
		t.Errorf("Completed = %d, want 2", got)
	}
	cdf := c.CompletionCDF()
	if len(cdf) != 2 || cdf[0] != 5 || cdf[1] != 8 {
		t.Errorf("CompletionCDF = %v, want [5 8]", cdf)
	}
	if _, done := c.CompletionTime(3); done {
		t.Error("node 3 should not have completed")
	}
	if _, done := c.CompletionTime(99); done {
		t.Error("untracked node should not have completed")
	}
}

func TestCompletionDisabledByDefault(t *testing.T) {
	c := NewCollector(sim.Second)
	for i := 0; i < 10; i++ {
		c.Add(sim.Time(i)*sim.Second, 1, Useful, 1500)
	}
	if got := c.Completed(); got != 0 {
		t.Errorf("Completed = %d without a target, want 0", got)
	}
	if cdf := c.CompletionCDF(); len(cdf) != 0 {
		t.Errorf("CompletionCDF = %v without a target, want empty", cdf)
	}
}
