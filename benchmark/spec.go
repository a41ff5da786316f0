package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json: the single source of the workload
// names, the metric names, their units, directions and bounds. The
// program reads it rather than repeating those tables.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`

	// ShouldMove names, per per-layer metric, the end-to-end quantities
	// it should move (none for a metric that only explains). It is
	// benchmark/should_move.json: BENCHMARK.json admits no key for it.
	ShouldMove map[string][]string `json:"-"`

	dir string // directory holding BENCHMARK.json: the repo root
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the current directory or its
// parent: the program runs from the repo root, its tests from
// benchmark/.
func loadSpec() (*benchSpec, error) {
	var s benchSpec
	var err error
	for _, dir := range []string{".", ".."} {
		var data []byte
		if data, err = os.ReadFile(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
		}
		s.dir = dir
		moves := filepath.Join(dir, "benchmark", "should_move.json")
		if data, err = os.ReadFile(moves); err != nil {
			return nil, fmt.Errorf("read benchmark spec: %w", err)
		}
		if err := json.Unmarshal(data, &s.ShouldMove); err != nil {
			return nil, fmt.Errorf("parse %s: %w", moves, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("read benchmark spec: %w", err)
}

// outDir is where traces and result files go: benchmark/out.
func (s *benchSpec) outDir() string { return filepath.Join(s.dir, "benchmark", "out") }
