package experiments_test

import (
	"os"

	"bullet/internal/experiments"
)

// README's "Running experiments in parallel" block quotes this body.

// RunAll fans experiment runs across workers; the output is identical
// for any worker count.
func ExampleRunAll() {
	runs := []experiments.Run{
		{ID: "table1", Scale: experiments.Small, Seed: 42},
		{ID: "overcast", Scale: experiments.Small, Seed: 42},
	}
	for _, rr := range experiments.RunAll(runs, 0) { // 0 = GOMAXPROCS
		rr.Result.Print(os.Stdout)
	}
	// Output:
	// # Table 1: bandwidth ranges for link types (Kbps)
	// # summary
	// generated.clients	40.000
	// generated.links	1883.000
	// generated.nodes	1498.000
	// links.Client-Stub	40.000
	// links.Stub-Stub	1639.000
	// links.Transit-Stub	163.000
	// links.Transit-Transit	41.000
	// # note: low / Client-Stub: 300-600
	// # note: low / Stub-Stub: 500-1000
	// # note: low / Transit-Stub: 1000-2000
	// # note: low / Transit-Transit: 2000-4000
	// # note: medium / Client-Stub: 800-2800
	// # note: medium / Stub-Stub: 1000-4000
	// # note: medium / Transit-Stub: 1000-4000
	// # note: medium / Transit-Transit: 5000-10000
	// # note: high / Client-Stub: 1600-5600
	// # note: high / Stub-Stub: 2000-8000
	// # note: high / Transit-Stub: 2000-8000
	// # note: high / Transit-Transit: 10000-20000
	// # Overcast-like online tree vs offline bottleneck tree
	// # summary
	// overcast_to_offline_ratio	0.690
	// trials	3.000
}
