package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the repo's packages as the benchmark reports them. Every
// bullet/internal/<pkg> maps to one (profile_test.go checks the list
// against the source tree); packages no workload executes fold into the
// layer they extend.
var layerOfPackage = map[string]string{
	"bullet/internal/sim":         "sim",
	"bullet/internal/netem":       "netem",
	"bullet/internal/topology":    "topology",
	"bullet/internal/scenario":    "topology", // link-dynamics actions mutate the graph
	"bullet/internal/transport":   "transport",
	"bullet/internal/tfrc":        "tfrc",
	"bullet/internal/core":        "core",
	"bullet/internal/workload":    "core", // the packet source core pumps
	"bullet/internal/adversary":   "core",
	"bullet/internal/codec":       "core",
	"bullet/internal/experiments": "core",
	"bullet/internal/ransub":      "ransub",
	"bullet/internal/bloom":       "bloom",
	"bullet/internal/sketch":      "sketch",
	"bullet/internal/workset":     "workset",
	"bullet/internal/nodeset":     "nodeset",
	"bullet/internal/metrics":     "metrics",
	"bullet/internal/streamer":    "streamer",
	"bullet/internal/epidemic":    "streamer",
	"bullet/internal/member":      "member",
	"bullet/internal/overlay":     "member", // tree surgery during repair
	"bullet/internal/arena":       "arena",
}

const (
	layerGC           = "runtime.gc"
	layerRuntimeOther = "runtime.other" // Go runtime, standard library, harness
)

// cpuLayers lists every <layer>.cpu_frac the traced run reports.
var cpuLayers = []string{"sim", "netem", "topology", "transport", "tfrc", "core", "ransub", "bloom",
	"sketch", "workset", "nodeset", "metrics", "streamer", "member", "arena", layerGC, layerRuntimeOther}

// budgetGroups are the per-event cost rows of ROADMAP item 1: event
// queue, netem hop, router lookup, transport/TFRC, protocol handler,
// metrics. The runtime layers belong to none, so the rows sum to the
// per-event cost minus the runtime's share.
var budgetGroups = map[string][]string{
	"queue":     {"sim"},
	"hop":       {"netem"},
	"router":    {"topology"},
	"transport": {"transport", "tfrc"},
	"protocol":  {"core", "ransub", "bloom", "sketch", "workset", "nodeset", "streamer", "member", "arena"},
	"metrics":   {"metrics"},
}

// gcRoots are the runtime entry points below which a sample is garbage
// collection rather than the mutator's own runtime calls.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// packageOf returns the import path of a symbol name as the Go linker
// writes it: "bullet/internal/sim.(*Engine).exec" → "bullet/internal/sim",
// "bullet/internal/arena.(*Arena[go.shape.struct {...}]).Get" →
// "bullet/internal/arena".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuAttribution is a CPU profile folded into layers.
type cpuAttribution struct {
	samples      int64
	byLayer      map[string]int64
	unattributed int64 // leaf in a bullet/ package layerOfPackage lacks
}

// attributeCPU decodes a runtime/pprof CPU profile and attributes each
// sample to the layer of its leaf function's package. The leaf of a
// location is its first line, so inlined callees count for their own
// package, not the caller's.
func attributeCPU(profile []byte) (*cpuAttribution, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	att := &cpuAttribution{byLayer: make(map[string]int64)}
	for _, s := range p.samples {
		if len(s.locs) == 0 {
			continue
		}
		att.samples += s.count
		layer := ""
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if gcRoots[fn] {
					layer = layerGC
				}
			}
		}
		if layer == "" {
			leaf := p.locFuncs[s.locs[0]]
			pkg := ""
			if len(leaf) > 0 {
				pkg = packageOf(leaf[0])
			}
			var known bool
			layer, known = layerOfPackage[pkg]
			if !known {
				layer = layerRuntimeOther
				if strings.HasPrefix(pkg, "bullet/internal/") {
					att.unattributed += s.count
				}
			}
		}
		att.byLayer[layer] += s.count
	}
	return att, nil
}

// The decoder below reads the few profile.proto fields attribution
// needs (github.com/google/pprof/proto/profile.proto): samples with
// their location ids and first value (the sample count), locations with
// their lines, functions with their names, and the string table.

type profSample struct {
	locs  []uint64
	count int64
}

type decodedProfile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, leaf first
}

var errTruncated = errors.New("truncated protobuf")

// protoFields calls fn for every field of a protobuf message: v is the
// value of a varint or fixed field, b the bytes of a length-delimited
// one.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field that arrives either
// packed (b) or one value at a time (v).
func repeatedVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*decodedProfile, error) {
	var (
		strs     []string
		funcName = make(map[uint64]uint64)   // function id → string index
		locLines = make(map[uint64][]uint64) // location id → function ids
		p        = &decodedProfile{locFuncs: make(map[uint64][]string)}
	)
	err := protoFields(raw, func(field int, _ uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var values []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, b)
				case 2:
					values, err = repeatedVarints(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines {
		for _, fn := range fns {
			if idx := funcName[fn]; idx < uint64(len(strs)) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[idx])
			}
		}
	}
	return p, nil
}
