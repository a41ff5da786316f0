package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"bullet/internal/netem"
	"bullet/internal/sim"
)

// identityScale is Small with a shortened stream so the full
// experiment × shard-count matrix stays tractable: identity does not
// need steady state, only enough virtual time to exercise cross-shard
// traffic, scenario mutations, and churn.
func identityScale() Scale {
	sc := Small
	sc.Start = 10 * sim.Second
	sc.Duration = 40 * sim.Second
	sc.RunUntil = 60 * sim.Second
	return sc
}

// renderTSV runs one experiment and renders its full TSV output — the
// series tables, CDFs and summaries the CLI prints — which is the
// byte-identity surface the sharded engine must preserve.
func renderTSV(t *testing.T, id string, sc Scale, seed int64) string {
	t.Helper()
	r, err := Registry[id].Run(sc, seed)
	if err != nil {
		t.Fatalf("%s at %d shard(s): %v", id, sc.Shards, err)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	return buf.String()
}

const identityDigestFile = "testdata/identity_digests.txt"

// updateDigests re-pins identityDigestFile from this run's serial
// renders: go test ./internal/experiments -run TestShardIdentityMatrix -update
// (ids the run does not cover, as under -short or a narrower -run, keep
// their lines). A PR that re-pins says in its description why the bytes moved.
var updateDigests = flag.Bool("update", false, "rewrite "+identityDigestFile+" from this run's serial renders")

// readIdentityDigests parses the committed id<TAB>sha256 table.
func readIdentityDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(identityDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, digest, ok := strings.Cut(line, "\t")
		if !ok || table[id] != "" {
			t.Fatalf("%s: malformed or repeated line %q", identityDigestFile, line)
		}
		table[id] = digest
	}
	return table
}

func writeIdentityDigests(t *testing.T, table map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range slices.Sorted(maps.Keys(table)) {
		fmt.Fprintf(&buf, "%s\t%s\n", id, table[id])
	}
	if err := os.WriteFile(identityDigestFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// simulates reports whether the experiment runs an emulated world at
// all: table1 only generates a topology and overcast only builds trees.
func simulates(id string) bool { return id != "table1" && id != "overcast" }

// TestShardIdentityMatrix is the tentpole guarantee as a table: every
// registered experiment, run at 2 and 8 shards, produces TSV output
// byte-identical to the serial (unsharded) run. Any divergence —
// event ordering, RNG draws, float accumulation order — shows up as a
// diff here. One shard is not rendered: it builds no plan and runs the
// serial engine (netem's TestOneShardIsSerial).
//
// The serial render is itself pinned: its sha256 must equal the
// committed line in testdata/identity_digests.txt, so "identical to the
// serial run" also means "identical to what the last re-pin produced".
// Floating-point results are only reproducible per architecture, so the
// table is amd64's and other architectures skip that comparison (the
// rule benchmark/golden.json follows).
//
// Every run also counts its ShardStatsSink reports: an experiment that
// simulates must report at least once at every shard count, or one of
// its worlds bypassed arm.run.
func TestShardIdentityMatrix(t *testing.T) {
	ids := Names()
	if testing.Short() {
		// A cross-section in -short: plain figure, epidemic baselines,
		// link dynamics that move the route epoch (dyn-partition) and
		// that move only the link generation (dyn-flashcrowd's
		// bandwidth squeeze), and membership churn.
		ids = []string{"fig7", "fig13", "dyn-partition", "dyn-flashcrowd", "churn-crashheal"}
	}
	const seed = 11
	pinned := readIdentityDigests(t)
	checkDigests := runtime.GOARCH == "amd64" && !*updateDigests
	t.Run("digest-table", func(t *testing.T) {
		if *updateDigests {
			t.Skip("-update: re-pinning, not comparing")
		}
		if !checkDigests {
			t.Skipf("%s pins amd64's bytes; serial renders are not compared with it on %s",
				identityDigestFile, runtime.GOARCH)
		}
		names := Names()
		for _, id := range names {
			if pinned[id] == "" {
				t.Errorf("%s: no line for %q", identityDigestFile, id)
			}
		}
		if len(pinned) > len(names) {
			t.Errorf("%s: %d lines for %d registered experiments", identityDigestFile, len(pinned), len(names))
		}
	})

	var mu sync.Mutex // guards pinned once the parallel subtests write to it
	if *updateDigests {
		// Cleanups run after every parallel subtest has finished.
		t.Cleanup(func() {
			if !t.Failed() {
				writeIdentityDigests(t, pinned)
			}
		})
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			// render runs the experiment on k shards (0: serial) and
			// requires a report to the sink per simulating run.
			render := func(k int) string {
				sc := identityScale()
				sc.Shards = k
				sunk := 0
				sc.ShardStatsSink = func(netem.RunLoad) { sunk++ }
				tsv := renderTSV(t, id, sc, seed)
				if simulates(id) && sunk == 0 {
					t.Errorf("shards=%d: ShardStatsSink never called", k)
				}
				return tsv
			}
			serial := render(0)
			if serial == "" {
				t.Fatal("serial run produced no output")
			}
			digest := fmt.Sprintf("%x", sha256.Sum256([]byte(serial)))
			if *updateDigests {
				mu.Lock()
				pinned[id] = digest
				mu.Unlock()
			} else if checkDigests && digest != pinned[id] {
				t.Errorf("serial output sha256 %s, %s pins %s", digest, identityDigestFile, pinned[id])
			}
			for _, k := range []int{2, 8} {
				if render(k) != serial {
					t.Errorf("shards=%d: output differs from serial run", k)
				}
			}
		})
	}
}
