package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// goldenFile is benchmark/golden.json: the digests this commit's
// simulator produces for the committed seed. A run whose workload, seed
// and virtual span match an entry must reproduce its digest; any other
// seed is checked by the cross-run identities alone. Digests hash
// floating-point series, so they are pinned per architecture.
type goldenFile struct {
	GOARCH  string        `json:"goarch"`
	Entries []goldenEntry `json:"entries"`
}

type goldenEntry struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	StreamS  float64 `json:"virtual_stream_s"`
	Digest   string  `json:"digest"`
}

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden digests: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &g, nil
}

// digest returns the pinned digest for a run, if there is one.
func (g *goldenFile) digest(workload string, seed int64, streamS float64, quick bool) (string, bool) {
	if g == nil || quick || g.GOARCH != runtime.GOARCH {
		return "", false
	}
	for _, e := range g.Entries {
		if e.Workload == workload && e.Seed == seed && e.StreamS == streamS {
			return e.Digest, true
		}
	}
	return "", false
}

// writeGolden pins the digests of a result set.
func writeGolden(path string, results []*workloadResult) error {
	g := goldenFile{GOARCH: runtime.GOARCH}
	for _, r := range results {
		g.Entries = append(g.Entries, goldenEntry{Workload: r.Name, Seed: r.Seed, StreamS: r.StreamS, Digest: r.Digest})
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
