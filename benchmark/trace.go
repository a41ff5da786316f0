package main

import (
	"fmt"
	"time"
)

// processStart is when this process began: the origin of setup_s and
// of every span timestamp.
var processStart = time.Now()

// A span is one timed interval of a traced run, recorded from the
// harness side of a call into the simulator. Spans of one run share
// Run; Parent is the ID of the enclosing span (0 for none).
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since process start
	EndNS   int64  `json:"end_ns"`
}

// spans collects a run's spans in memory; they are written out once,
// when the run is over. A nil *spans records nothing.
type spans struct {
	run  string
	list []span
	open []int // stack of open span IDs
}

func newSpans(workload string, seed int64) *spans {
	return &spans{run: fmt.Sprintf("%s-%d-%d", workload, seed, processStart.UnixNano())}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (s *spans) begin(name string) (end func()) {
	if s == nil {
		return func() {}
	}
	id := len(s.list) + 1
	parent := 0
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.list = append(s.list, span{Run: s.run, ID: id, Parent: parent, Name: name,
		StartNS: time.Since(processStart).Nanoseconds()})
	s.open = append(s.open, id)
	return func() {
		s.list[id-1].EndNS = time.Since(processStart).Nanoseconds()
		s.open = s.open[:len(s.open)-1]
	}
}

// selfNS returns each span's duration minus the part its child spans
// cover, keyed by span ID.
func selfNS(list []span) map[int]int64 {
	self := make(map[int]int64, len(list))
	for _, sp := range list {
		self[sp.ID] += sp.EndNS - sp.StartNS
		if sp.Parent != 0 {
			self[sp.Parent] -= sp.EndNS - sp.StartNS
		}
	}
	return self
}
