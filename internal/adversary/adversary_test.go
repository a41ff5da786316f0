package adversary

import (
	"reflect"
	"testing"

	"bullet/internal/overlay"
)

func TestModelNames(t *testing.T) {
	want := []string{"none", "freeride", "liar", "cutvertex", "joinstorm", "ballotstuff", "Model(6)"}
	for m, name := range want {
		if got := Model(m).String(); got != name {
			t.Errorf("Model(%d).String() = %q, want %q", m, got, name)
		}
	}
}

func participants(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i * 3 // non-contiguous ids, like graph node ids
	}
	return ids
}

func TestSelectionIsPureFunctionOfSeed(t *testing.T) {
	parts := participants(40)
	a := New(Config{Model: Freeride}, parts, 0, 42)
	b := New(Config{Model: Freeride}, parts, 0, 42)
	if !reflect.DeepEqual(a.Colluders(), b.Colluders()) {
		t.Fatalf("same seed, different colluders: %v vs %v", a.Colluders(), b.Colluders())
	}
	c := New(Config{Model: Freeride}, parts, 0, 43)
	if reflect.DeepEqual(a.Colluders(), c.Colluders()) {
		t.Fatalf("different seeds picked identical colluders: %v", a.Colluders())
	}
	d := New(Config{Model: Liar}, parts, 0, 42)
	if reflect.DeepEqual(a.Colluders(), d.Colluders()) {
		t.Fatalf("different models picked identical colluders: %v", a.Colluders())
	}
}

func TestSelectionSizeAndRootExclusion(t *testing.T) {
	parts := participants(41) // 40 non-root candidates
	f := New(Config{Model: Freeride}, parts, 0, 7)
	if got := len(f.Colluders()); got != 10 {
		t.Fatalf("fraction 0.25 of 40 candidates: got %d colluders, want 10", got)
	}
	for _, id := range f.Colluders() {
		if id == 0 {
			t.Fatal("root was compromised")
		}
	}
	// Colluders are sorted ascending.
	ids := f.Colluders()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("colluders not ascending: %v", ids)
		}
	}
}

func TestDormantUntilStrike(t *testing.T) {
	f := New(Config{Model: Freeride}, participants(10), 0, 1)
	id := f.Colluders()[0]
	if f.Hostile(id) || f.RefusesServe(id) || f.RefusesRelay(id) {
		t.Fatal("fleet hostile before Activate")
	}
	f.Activate()
	if !f.Hostile(id) || !f.RefusesServe(id) || !f.RefusesRelay(id) {
		t.Fatal("fleet not hostile after Activate")
	}
	if f.Hostile(0) {
		t.Fatal("root reported hostile")
	}
}

func TestServeRelayMatrix(t *testing.T) {
	cases := []struct {
		model Model
		serve bool // refuses serve
		relay bool // refuses relay
	}{
		{Freeride, true, true},
		{Liar, true, false},
		{Ballotstuff, true, false},
		{Cutvertex, false, false},
		{Joinstorm, false, false},
	}
	for _, c := range cases {
		f := New(Config{Model: c.model}, participants(10), 0, 1)
		if c.model == Cutvertex {
			f.Compromise([]int{3}) // cutvertex records victims at strike
		}
		f.Activate()
		id := f.Colluders()[0]
		if got := f.RefusesServe(id); got != c.serve {
			t.Errorf("%v RefusesServe = %v, want %v", c.model, got, c.serve)
		}
		if got := f.RefusesRelay(id); got != c.relay {
			t.Errorf("%v RefusesRelay = %v, want %v", c.model, got, c.relay)
		}
	}
}

func TestCompromiseExtendsSet(t *testing.T) {
	f := New(Config{Model: Cutvertex}, participants(20), 0, 3)
	before := len(f.Colluders())
	f.Compromise([]int{99, 99, 0}) // dup and root are ignored
	if got := len(f.Colluders()); got != before+1 {
		t.Fatalf("Compromise added %d ids, want 1", got-before)
	}
	if !f.Is(99) || f.Is(0) {
		t.Fatal("Compromise membership wrong")
	}
}

func TestStreamDeterministicAndTagged(t *testing.T) {
	a := NewStream(42, streamTag(Joinstorm))
	b := NewStream(42, streamTag(Joinstorm))
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(i%7), b.Float64(i%7); x != y {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
	}
	c := NewStream(42, streamTag(Freeride))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64(i%7) == c.Float64(i%7) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently-tagged streams correlated: %d/100 equal draws", same)
	}
	if a.Draws() != 200 {
		t.Fatalf("draw counter = %d, want 200", a.Draws())
	}
	for i := 0; i < 50; i++ {
		if n := a.Intn(3, 10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
	}
}

// buildTree makes:
//
//	0 ── 1 ── 3, 4, 5
//	  └─ 2 ── 6
//
// Node 1's subtree has mass 4, node 2's mass 2.
func buildTree(t *testing.T) *overlay.Tree {
	tr := overlay.NewTree(0)
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 1}, {6, 2}} {
		if err := tr.Attach(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestCutSetPicksHeaviestLiveSubtrees(t *testing.T) {
	tr := buildTree(t)
	allLive := func(int) bool { return true }
	got := CutSet(tr, allLive, 2)
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("CutSet = %v, want [1 2]", got)
	}
	// Victims inside an already-picked subtree are skipped: with
	// budget 3 the next pick is 2's child 6... but 6 is under 2,
	// so the only remaining candidates are leaves outside taken
	// subtrees — none. Budget is not padded.
	if got := CutSet(tr, allLive, 10); len(got) != 2 {
		t.Fatalf("CutSet exhausted = %v, want 2 victims", got)
	}
	// Dead nodes carry no mass and are not picked.
	deadOne := func(id int) bool { return id != 1 && id != 3 && id != 4 && id != 5 }
	if got := CutSet(tr, deadOne, 1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("CutSet with dead subtree = %v, want [2]", got)
	}
	if got := CutSet(tr, allLive, 0); got != nil {
		t.Fatalf("CutSet budget 0 = %v, want nil", got)
	}
}
