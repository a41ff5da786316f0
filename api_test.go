package bullet_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The module's exported API and the rules that keep deleted mechanisms
// deleted are both read off one go/ast walk of the source tree, so
// they hold under `go test ./...` on every platform.

const apiFile = "testdata/api.txt"

// updateAPI rewrites apiFile from the tree:
// go test -run TestAPISurface . -update
var updateAPI = flag.Bool("update", false, "rewrite "+apiFile+" from the source tree")

// srcFile is one parsed .go file of the module.
type srcFile struct {
	path string // slash-separated, relative to the module root
	dir  string // path's directory, "." for the root package
	test bool
	f    *ast.File
}

var (
	srcOnce  sync.Once
	srcFset  = token.NewFileSet()
	srcFiles []*srcFile
	srcErr   error
)

// sourceTree parses every .go file under the module root once,
// skipping the directories the go tool ignores (testdata and names
// starting with "." or "_").
func sourceTree(t *testing.T) []*srcFile {
	t.Helper()
	srcOnce.Do(func() {
		srcErr = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") {
				return nil
			}
			f, err := parser.ParseFile(srcFset, p, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p = filepath.ToSlash(p)
			srcFiles = append(srcFiles, &srcFile{
				path: p, dir: path.Dir(p), test: strings.HasSuffix(name, "_test.go"), f: f,
			})
			return nil
		})
	})
	if srcErr != nil {
		t.Fatal(srcErr)
	}
	return srcFiles
}

// TestAPISurface holds every exported identifier of every non-main
// package (its non-test files) to apiFile, one sorted line each:
// pkg.Name, pkg.Type.Method, pkg.Type.Field, pkg.Interface.Method. The
// package is its directory ("bullet" for the root). A change that adds
// or removes a name shows it as that file's diff.
func TestAPISurface(t *testing.T) {
	declared := map[string]token.Pos{}
	for _, sf := range sourceTree(t) {
		if sf.test || sf.f.Name.Name == "main" {
			continue
		}
		pkg := sf.dir
		if pkg == "." {
			pkg = "bullet"
		}
		for name, pos := range exportedNames(sf.f) {
			if _, ok := declared[pkg+"."+name]; !ok {
				declared[pkg+"."+name] = pos
			}
		}
	}
	got := make([]string, 0, len(declared))
	for name := range declared {
		got = append(got, name)
	}
	slices.Sort(got)

	if *updateAPI {
		if err := os.WriteFile(apiFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(apiFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" {
			want[line] = true
		}
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("%s: exported %s is not in %s", srcFset.Position(declared[name]), name, apiFile)
		}
	}
	for name := range want {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: %s is listed but no longer declared", apiFile, name)
		}
	}
	if t.Failed() {
		t.Logf("the exported API changed; if that is meant, rerun with -update and commit %s", apiFile)
	}
}

// exportedNames lists f's exported declarations, relative to its
// package, with where each is declared.
func exportedNames(f *ast.File) map[string]token.Pos {
	names := map[string]token.Pos{}
	add := func(id *ast.Ident, prefix string) {
		if id.IsExported() {
			names[prefix+id.Name] = id.Pos()
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, "")
			} else if recv := baseType(d.Recv.List[0].Type); recv != nil && recv.IsExported() {
				add(d.Name, recv.Name+".")
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, "")
					}
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					add(s.Name, "")
					var members *ast.FieldList
					switch typ := s.Type.(type) {
					case *ast.StructType:
						members = typ.Fields
					case *ast.InterfaceType:
						members = typ.Methods
					}
					if members == nil {
						continue
					}
					for _, m := range members.List {
						for _, id := range m.Names {
							add(id, s.Name.Name+".")
						}
						if len(m.Names) == 0 {
							if id := baseType(m.Type); id != nil {
								add(id, s.Name.Name+".")
							}
						}
					}
				}
			}
		}
	}
	return names
}

// baseType is the type name in a receiver or embedded-field
// expression (T, *T, T[P], pkg.T), or nil for anything else.
func baseType(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// sourceGuard is one rule over the tree: the files in scope must not
// name any of words (as an identifier or a word in a comment), and
// check, if set, describes what breaks the rule at node n ("" if
// nothing) and the node to report it at.
type sourceGuard struct {
	rule  string
	scope func(sf *srcFile) bool
	words []string
	check func(n ast.Node) (ast.Node, string)
}

func under(dir string, tests bool) func(*srcFile) bool {
	return func(sf *srcFile) bool {
		return (tests || !sf.test) && (sf.dir == dir || strings.HasPrefix(sf.dir, dir+"/"))
	}
}

func anyFile(*srcFile) bool { return true }

// sourceGuards are the mechanisms that exist once, or not at all.
var sourceGuards = []sourceGuard{
	{
		// Membership lives once, in internal/member.Roster; a protocol
		// that re-declares one of these has forked the contract. (core
		// legitimately overrides SetAdversary, Compromise, Strike, Stop.)
		rule: "one membership implementation",
		scope: func(sf *srcFile) bool {
			return sf.dir == "internal/core" || sf.dir == "internal/streamer" || sf.dir == "internal/epidemic"
		},
		check: func(n ast.Node) (ast.Node, string) {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Recv == nil {
				return nil, ""
			}
			switch fn.Name.Name {
			case "Live", "MemberEpoch", "Adversary", "Stopped", "Collector", "Workload",
				"Tree", "Nodes", "Shard", "Shards", "Colluders", "Protocol":
				return fn.Name, "method " + fn.Name.Name + " re-declares member.Roster's"
			}
			return nil, ""
		},
	},
	{
		// Every Graph keeps the transit-stub contract (validateHier), so
		// neither the node-count switch nor a flat production backend
		// behind the Router may come back; the flat Dijkstra lives in
		// topology's flat_test.go.
		rule:  "one router",
		scope: under("internal", false),
		words: []string{"hierNodeThreshold", "hierRouter", "newFlatRouter", "spTree"},
	},
	{
		// One event queue: the calendar ring plus its unsorted far list.
		// The overflow heap that sat behind the ring stays deleted.
		rule:  "no second event queue",
		scope: under("internal/sim", true),
		words: []string{"ofPush", "ofPop", "ofAt"},
	},
	{
		// The tie-break is an entry's push position in its bucket, so no
		// event carries a queue-wide sequence number.
		rule:  "no event sequence counter",
		scope: under("internal/sim", false),
		check: func(n ast.Node) (ast.Node, string) {
			st, ok := n.(*ast.StructType)
			if !ok {
				return nil, ""
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.Name == "seq" {
						return id, "struct field seq"
					}
				}
			}
			return nil, ""
		},
	},
	{
		// TFRC reports are values: a one-way flow only ever took from a
		// per-endpoint feedback pool on one side and returned on the other.
		rule:  "no feedback pool",
		scope: under("internal", true),
		words: []string{"fbArena"},
		check: func(n ast.Node) (ast.Node, string) {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return nil, ""
			}
			if sel, ok := ix.X.(*ast.SelectorExpr); ok && isIdent(sel.X, "arena") && sel.Sel.Name == "Arena" && isIdent(ix.Index, "feedbackMsg") {
				return ix, "arena.Arena[feedbackMsg]"
			}
			return nil, ""
		},
	},
	{
		// Partition balance holds by construction, so the fit that chose
		// a client weight from an unbalanced run stays deleted.
		rule:  "no client-weight calibration",
		scope: anyFile,
		words: []string{"CalibrateClientWeight"},
	},
	{
		// Every arm is a bullet.World, and arm.run (arm.go) is the only
		// code that deploys into one and runs it; entry.Run, in
		// runner.go, is the registry calling a runner. No experiment
		// builds an engine, emulator or router of its own.
		rule: "one experiment deploy site",
		scope: func(sf *srcFile) bool {
			return sf.dir == "internal/experiments" && !sf.test && path.Base(sf.path) != "arm.go"
		},
		check: func(n ast.Node) (ast.Node, string) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return nil, ""
			}
			switch {
			case isIdent(sel.X, "sim") && sel.Sel.Name == "NewEngine",
				isIdent(sel.X, "netem") && sel.Sel.Name == "New",
				isIdent(sel.X, "topology") && sel.Sel.Name == "NewRouter":
				return sel, sel.X.(*ast.Ident).Name + "." + sel.Sel.Name
			case (sel.Sel.Name == "Deploy" || sel.Sel.Name == "Run") && !isIdent(sel.X, "entry"):
				return sel, "." + sel.Sel.Name
			}
			return nil, ""
		},
	},
	{
		// Memory is shard-private: the arena is the only pool, and each
		// arena takes back only what it issued. A process-wide pool
		// would hand storage between shard goroutines mid-window.
		rule:  "one pooling idiom",
		scope: func(sf *srcFile) bool { return !sf.test },
		words: []string{"seqWindowPool", "releaseReceiver", "getInflight", "putInflight"},
		check: func(n ast.Node) (ast.Node, string) {
			if sel, ok := n.(*ast.SelectorExpr); ok && isIdent(sel.X, "sync") && sel.Sel.Name == "Pool" {
				return sel, "sync.Pool"
			}
			return nil, ""
		},
	},
	{
		// Ship only what runs: the second binary, the rate-schedule
		// workload, the test-only helpers, the CLI's exported config
		// type, the write-only Bullet counters, the settings with one
		// value in use, the protocol registry and wrappers, and the
		// root package's re-exported experiment harness, the per-node
		// tick closures that node-carrying events replaced, and the
		// runtime latency, scaling and loss scenario actions: a link's
		// delay is fixed with the graph, so the sharded lookahead is a
		// constant of the plan. Names too common to ban as words are
		// checked as package selectors.
		rule:  "deleted stays deleted",
		scope: anyFile,
		words: []string{"MultiRate", "RateStep", "SetRateAt", "RampBandwidth", "SortedIDs",
			"ProfileByName", "RunConfigError", "dupFromParent", "pumpBlocked", "totalOwnDrops",
			"timerSlot", "Tornado", "LinkUtilization", "WorkloadSink",
			"FreshnessDelay", "RecoveryWindow", "FilterRefresh", "EvalInterval", "DuplicateThreshold",
			"BloomFPRate", "PumpInterval", "ModRows", "SetSize", "EpochTimeout", "Fanout",
			"DefaultFraction", "SetTrace", "DataBytes",
			"runtimeSystem", "deployStock", "RegisterProtocol", "ProtocolByName", "UnknownProtocolError",
			"GossipConfig", "AntiEntropyConfig", "StreamRateKbps", "LiveNodes", "MissingInRange",
			"ModelByName",
			"worldOn", "bulletOn", "streamOn", "gossipOn", "antiEntropyOn", "RunExperiment",
			"RunExperiments", "ExperimentRun", "ExperimentResult", "ExperimentScale",
			"SmallScale", "MegaScale", "pumpFn", "refreshFn", "evalFn",
			"SetLatency", "ScaleBandwidth", "LookaheadNow", "QueueDelayLimit"},
		check: func(n ast.Node) (ast.Node, string) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return nil, ""
			}
			if isIdent(sel.X, "sim") && sel.Sel.Name == "Scheduler" || isIdent(sel.X, "workload") && sel.Sel.Name == "Sink" ||
				(isIdent(sel.X, "scenario") || isIdent(sel.X, "bullet")) && sel.Sel.Name == "SetLoss" {
				return sel, sel.X.(*ast.Ident).Name + "." + sel.Sel.Name
			}
			return nil, ""
		},
	},
	{
		// Goroutines start in two places: the shard workers of a sharded
		// run and the experiment runner's workers. One started anywhere
		// else would make a run's order depend on the Go scheduler.
		rule: "two goroutine sites",
		scope: func(sf *srcFile) bool {
			return !sf.test && sf.path != "internal/netem/parallel.go" && sf.path != "internal/experiments/runner.go"
		},
		check: func(n ast.Node) (ast.Node, string) {
			if g, ok := n.(*ast.GoStmt); ok {
				return g, "go statement"
			}
			return nil, ""
		},
	},
	{
		// In a sharded run the coordinator alone decides, between
		// windows, with every worker waiting; workers only run windows.
		// The last-arriver decider and its rounds stay deleted, and so
		// does the packed release word with its sense and stop bits:
		// each worker has a release and a done mailbox, one writer each.
		rule:  "one barrier decider",
		scope: under("internal/netem", false),
		words: []string{"windowDecide", "publishWindow", "shardWindows", "coordRound",
			"roundLimit", "roundEnd", "actPark", "pword", "stateWord", "stateSense", "stateStop"},
	},
	{
		// Link state is written only by the Graph's mutators, which move
		// the route epoch and the link generation that the router's
		// caches and netem's link records are refreshed by; a write
		// elsewhere would reach neither.
		rule:  "link state through the Graph mutators",
		scope: func(sf *srcFile) bool { return !under("internal/topology", true)(sf) },
		check: func(n ast.Node) (ast.Node, string) {
			var lhs []ast.Expr
			switch st := n.(type) {
			case *ast.AssignStmt:
				lhs = st.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{st.X}
			}
			for _, e := range lhs {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				switch sel.Sel.Name {
				case "Down", "Bytes", "Loss", "Delay", "A", "B":
				default:
					continue
				}
				if ix, ok := ast.Unparen(sel.X).(*ast.IndexExpr); ok {
					if links := baseType(ix.X); links != nil && links.Name == "Links" {
						return sel, "writes Links[...]." + sel.Sel.Name
					}
				}
			}
			return nil, ""
		},
	},
	{
		// A counter-hash draw is sim.Draw(key, id, n); its stream
		// multiplier written anywhere else is a second copy of the
		// formula. netem's reference model keeps its own copy on
		// purpose: a test, outside the rule's scope.
		rule:  "one counter-hash formula",
		scope: func(sf *srcFile) bool { return !sf.test && !under("internal/sim", false)(sf) },
		check: func(n ast.Node) (ast.Node, string) {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.INT {
				return nil, ""
			}
			if v, err := strconv.ParseUint(lit.Value, 0, 64); err == nil && v == 0xBF58476D1CE4E5B9 {
				return lit, "counter-hash multiplier " + lit.Value + " outside sim.Draw"
			}
			return nil, ""
		},
	},
	{
		// State that restated a fact another part of the program owns:
		// a per-source same-atom tree (solve builds it once per pair and
		// route epoch), a parallel slice of shard engines (each
		// shardCtx holds its own), TFRC flags equal to n > 0 and to
		// havePacket, the router's fill-on-first-use stamps and sizing
		// pass for the gateway trees and H (invalidate builds both
		// where the graph changes, and Sync is the epoch check), RanSub's
		// count of epochs equal to the epoch, and the roster's copy of
		// the topology's node count.
		rule: "no second copy of a fact",
		scope: func(sf *srcFile) bool {
			for _, dir := range []string{"internal/topology", "internal/netem", "internal/tfrc", "internal/ransub", "internal/member"} {
				if under(dir, true)(sf) {
					return true
				}
			}
			return false
		},
		words: []string{"hatree", "atomTree", "engineFor", "haveLoss", "haveTS",
			"atomGen", "hBuilt", "ensureAtom", "hEdges", "ensureEpoch", "epochsCompleted", "topoNodes"},
	},
}

// deletedPaths stay deleted with the "deleted stays deleted" rule.
var deletedPaths = []string{"cmd/topogen", "internal/codec", "examples"}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// TestSourceGuards runs every sourceGuards row over the files in its
// scope and names the file, line and rule of each violation.
func TestSourceGuards(t *testing.T) {
	for _, p := range deletedPaths {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("%s: exists (rule: deleted stays deleted)", p)
		}
	}
	files := sourceTree(t)
	for _, g := range sourceGuards {
		banned := map[string]bool{}
		for _, w := range g.words {
			banned[w] = true
		}
		var inComment *regexp.Regexp
		if len(g.words) > 0 {
			inComment = regexp.MustCompile(`\b(` + strings.Join(g.words, "|") + `)\b`)
		}
		for _, sf := range files {
			if !g.scope(sf) {
				continue
			}
			report := func(pos token.Pos, what string) {
				t.Errorf("%s: %s (rule: %s)", srcFset.Position(pos), what, g.rule)
			}
			ast.Inspect(sf.f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
					report(id.Pos(), "names "+id.Name)
				}
				if n != nil && g.check != nil {
					if at, what := g.check(n); what != "" {
						report(at.Pos(), what)
					}
				}
				return true
			})
			if inComment == nil {
				continue
			}
			for _, cg := range sf.f.Comments {
				for _, c := range cg.List {
					if w := inComment.FindString(c.Text); w != "" {
						report(c.Pos(), fmt.Sprintf("comment names %s", w))
					}
				}
			}
		}
	}
}
