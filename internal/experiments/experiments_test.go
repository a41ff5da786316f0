package experiments

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The shape targets of DESIGN.md §3 at Small scale. These are the
// reproduction's acceptance tests.

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"small", "medium", "paper"} {
		sc, err := ScaleByName(n)
		if err != nil || sc.Name != n {
			t.Fatalf("ScaleByName(%q)=%+v,%v", n, sc, err)
		}
	}
	if _, err := ScaleByName("x"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "overcast",
		"dyn-bottleneck", "dyn-partition", "dyn-flashcrowd", "dyn-oscillate",
		"churn-crash25", "churn-crashheal", "churn-rolling", "churn-join",
		"churn-xl", "filedist-compare", "vbr-stream",
		"adv-freeride", "adv-liar", "adv-cutvertex", "adv-joinstorm",
		"adv-ballotstuff"}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Fatalf("registry missing %q", id)
		}
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Names()), len(want))
	}

	// Every exported function of this package with Runner's signature
	// is some entry's Run: a runner nobody registered is unreachable
	// from bullet-sim.
	registered := make(map[string]bool)
	for _, e := range Registry {
		name := runtime.FuncForPC(reflect.ValueOf(e.Run).Pointer()).Name()
		registered[name[strings.LastIndexByte(name, '.')+1:]] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			if types.ExprString(fn.Type) == "func(sc Scale, seed int64) (*Result, error)" && !registered[fn.Name.Name] {
				t.Errorf("runner %s is not in Registry", fn.Name.Name)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Notes) != 12 {
		t.Fatalf("want 12 range notes, got %d", len(r.Notes))
	}
	if r.Summary["generated.clients"] != float64(Small.Clients) {
		t.Fatalf("clients %v", r.Summary["generated.clients"])
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "Client-Stub") {
		t.Fatal("print output missing link classes")
	}
}

func TestFig06Shape(t *testing.T) {
	r, err := Fig06(Small, 2)
	if err != nil {
		t.Fatal(err)
	}
	bn := r.MeanTail("bottleneck_tree", 0.4)
	rd := r.MeanTail("random_tree", 0.4)
	if bn <= rd {
		t.Fatalf("bottleneck tree %.0f <= random tree %.0f", bn, rd)
	}
	// At 1000 nodes the paper's random tree delivers <100 Kbps; a
	// 40-node random tree is far shallower, so only require that it
	// stays clearly below the 600 Kbps target.
	if rd > 450 {
		t.Fatalf("random tree %.0f implausibly high for a constrained stream", rd)
	}
}

func TestFig07Shape(t *testing.T) {
	r, err := Fig07(Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	useful := r.MeanTail("useful_total", 0.4)
	raw := r.MeanTail("raw_total", 0.4)
	parent := r.MeanTail("from_parent", 0.4)
	if useful < 150 {
		t.Fatalf("Bullet useful %.0f Kbps too low", useful)
	}
	if raw < useful {
		t.Fatal("raw below useful")
	}
	if raw > useful*1.4 {
		t.Fatalf("raw %.0f far above useful %.0f: wasted bandwidth", raw, useful)
	}
	if parent >= useful {
		t.Fatal("no perpendicular bandwidth: parent >= useful")
	}
	// The paper reports <10% duplicates at 1000 participants; at 40
	// participants each peer covers a tenth of the whole system and
	// parent-relay races are proportionally more frequent, so the
	// small-scale bound is looser. No per-scale record of the measured
	// ratio exists yet; ROADMAP item 4 asks for one.
	if r.Summary["duplicate_ratio"] > 0.25 {
		t.Fatalf("duplicate ratio %.3f", r.Summary["duplicate_ratio"])
	}
	if r.Summary["control_overhead_kbps"] > 60 {
		t.Fatalf("control overhead %.1f Kbps", r.Summary["control_overhead_kbps"])
	}
	if r.Summary["link_stress_avg"] < 1 || r.Summary["link_stress_avg"] > 4 {
		t.Fatalf("link stress %.2f outside plausible band", r.Summary["link_stress_avg"])
	}
}

func TestFig08Shape(t *testing.T) {
	r, err := Fig08(Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CDF) != Small.Clients {
		t.Fatalf("CDF has %d points, want %d", len(r.CDF), Small.Clients)
	}
	// The distribution must rise sharply: the median node should get a
	// solid share, and few nodes should be starved.
	median := r.CDF[len(r.CDF)/2]
	if median < 100 {
		t.Fatalf("median instantaneous bandwidth %.0f Kbps", median)
	}
	starved := 0
	for _, v := range r.CDF {
		if v < 50 {
			starved++
		}
	}
	if frac := float64(starved) / float64(len(r.CDF)); frac > 0.25 {
		t.Fatalf("%.0f%% of nodes starved", frac*100)
	}
}

func TestFig09Shape(t *testing.T) {
	r, err := Fig09(Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	// At 40 participants the offline tree (global knowledge, shallow
	// chain) is near its best while Bullet pays fixed mesh overhead, so
	// the small-scale bound only requires Bullet to stay competitive;
	// the paper's up-to-2x advantage is expected at depth (medium and
	// paper scales, which no test checks yet: ROADMAP item 4).
	for _, bw := range []string{"low", "medium", "high"} {
		b := r.MeanTail("bullet_"+bw, 0.4)
		tr := r.MeanTail("bottleneck_tree_"+bw, 0.4)
		if b < tr*0.7 {
			t.Fatalf("%s: Bullet %.0f below 0.7x bottleneck tree %.0f", bw, b, tr)
		}
	}
	// The gap grows as bandwidth tightens.
	gapLow := r.MeanTail("bullet_low", 0.4) / max1(r.MeanTail("bottleneck_tree_low", 0.4))
	gapHigh := r.MeanTail("bullet_high", 0.4) / max1(r.MeanTail("bottleneck_tree_high", 0.4))
	if gapLow < gapHigh*0.8 {
		t.Fatalf("advantage does not grow under constraint: low gap %.2f vs high gap %.2f", gapLow, gapHigh)
	}
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

func TestFig10Shape(t *testing.T) {
	r10, err := Fig10(Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := Fig07(Small, 3)
	if err != nil {
		t.Fatal(err)
	}
	// On the medium topology at small scale both variants can saturate
	// the stream, so allow a small tolerance; the disjoint strategy's
	// advantage under constrained child links is asserted by the
	// low-bandwidth ablation in internal/core (TestDisjointSendAblation).
	with := r7.MeanTail("useful_total", 0.4)
	without := r10.MeanTail("useful_total", 0.4)
	if without > with*1.05 {
		t.Fatalf("non-disjoint %.0f beat disjoint %.0f by more than tolerance", without, with)
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(Small, 5)
	if err != nil {
		t.Fatal(err)
	}
	bullet := r.MeanTail("bullet_useful", 0.4)
	gossip := r.MeanTail("gossip_useful", 0.4)
	ae := r.MeanTail("antientropy_useful", 0.4)
	// The paper's +60% margin is at 100 participants on a 5000-node
	// topology; at 40 participants the anti-entropy baseline (which
	// streams over the *global-knowledge* bottleneck tree) is close to
	// its best, so the small-scale bound tolerates near-parity (the
	// tie's per-scale record waits on ROADMAP item 4).
	if bullet < gossip*0.85 || bullet < ae*0.85 {
		t.Fatalf("Bullet %.0f fell >15%% behind gossip %.0f / anti-entropy %.0f", bullet, gossip, ae)
	}
	// Epidemics waste bandwidth: raw well above useful for gossip.
	gRaw := r.MeanTail("gossip_raw", 0.4)
	if gRaw < gossip*1.2 {
		t.Fatalf("gossip raw %.0f not clearly above useful %.0f", gRaw, gossip)
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Fig12(Small, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, bw := range []string{"medium", "low"} {
		b := r.MeanTail("bullet_"+bw, 0.4)
		tr := r.MeanTail("bottleneck_tree_"+bw, 0.4)
		if b < tr {
			t.Fatalf("lossy %s: Bullet %.0f below tree %.0f", bw, b, tr)
		}
	}
}

func TestFig13Fig14Shape(t *testing.T) {
	r13, err := Fig13(Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	r14, err := Fig14(Small, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r13.Summary["failed_node_descendants"] < 1 {
		t.Skip("tree draw gave the root no child with descendants")
	}
	// Both runs keep delivering after the failure; recovery-enabled
	// retains at least as much bandwidth as recovery-disabled.
	after13 := r13.Summary["useful_after_kbps"]
	after14 := r14.Summary["useful_after_kbps"]
	before13 := r13.Summary["useful_before_kbps"]
	if after13 < before13*0.3 {
		t.Fatalf("fig13: collapse after failure: %.0f -> %.0f", before13, after13)
	}
	if after14 < after13*0.85 {
		t.Fatalf("fig14 recovery (%.0f) worse than no recovery (%.0f)", after14, after13)
	}
}

func TestFig15Shape(t *testing.T) {
	r, err := Fig15(Small, 8)
	if err != nil {
		t.Fatal(err)
	}
	bullet := r.MeanTail("bullet", 0.4)
	good := r.MeanTail("good_tree", 0.4)
	worst := r.MeanTail("worst_tree", 0.4)
	if bullet <= good {
		t.Fatalf("Bullet %.0f did not beat the good tree %.0f", bullet, good)
	}
	if good < worst {
		t.Fatalf("good tree %.0f below worst tree %.0f", good, worst)
	}
	// With an unconstrained source Bullet approaches the full rate.
	if r.Summary["bullet_unconstrained_kbps"] < 1000 {
		t.Fatalf("unconstrained Bullet only %.0f Kbps of 1500", r.Summary["bullet_unconstrained_kbps"])
	}
}

func TestOvercastShape(t *testing.T) {
	r, err := OvercastComparison(Small, 9)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.Summary["overcast_to_offline_ratio"]
	if ratio <= 0 || ratio > 1.1 {
		t.Fatalf("overcast/offline ratio %.2f outside (0, 1.1]", ratio)
	}
}

func TestResultPrintSeries(t *testing.T) {
	r := newResult("x")
	r.addSeries("a", nil)
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "a_kbps") {
		t.Fatal("series header missing")
	}
}
