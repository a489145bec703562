package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU profile sample: its stack as function names, leaf
// first with inlined frames expanded innermost first, and the CPU time it
// stands for.
type stackSample struct {
	stack []string
	nanos int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes. It reads only the fields attribution needs: samples, locations
// with their line entries, functions, the string table, the sample types
// and the sampling period.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs      []string
		units     []uint64 // string index of each sample type's unit
		samples   []rawSample
		period    uint64
		funcNames = make(map[uint64]uint64)   // function id → name string index
		locFuncs  = make(map[uint64][]uint64) // location id → function ids, innermost first
	)
	err = eachField(raw, func(f field) error {
		switch f.num {
		case 1: // sample_type
			return eachField(f.b, func(g field) error {
				if g.num == 2 {
					units = append(units, g.v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(f.b, func(g field) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = appendVarints(s.locs, g)
				case 2:
					s.vals, err = appendVarints(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(f.b, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return eachField(g.b, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(f.b, func(g field) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		case 12: // period
			period = f.v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Go's CPU profiles carry [samples/count, cpu/nanoseconds]; fall back to
	// count × period for a profile without a nanosecond column.
	nsCol := -1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			nsCol = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var ns int64
		switch {
		case nsCol >= 0 && nsCol < len(s.vals):
			ns = int64(s.vals[nsCol])
		case len(s.vals) > 0:
			ns = int64(s.vals[0] * period)
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, stackSample{stack: stack, nanos: ns})
	}
	return out, nil
}

// field is one protobuf field: v holds a varint or fixed value, b the bytes
// of a length-delimited one.
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message.
func eachField(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, f field) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// layers lists every layer of the table, in README.md's order. Every
// sample's self time goes to exactly one of them.
var layers = []string{
	"gc", "copy", "setup", "core.cleanup", "policy", "memsys.queue", "memsys",
	"cache", "coherence", "dram", "ceaser", "branch", "isa", "workload",
	"metrics", "campaign", "experiments", "multicore", "attack", "sim",
	"cpu.squash", "cpu.queues", "cpu.fetch", "cpu.dispatch", "cpu.issue",
	"cpu.complete", "cpu.commit", "cpu.other", "other",
}

// inclLayers are the layers whose inclusive time is reported.
var inclLayers = []string{
	"cpu.fetch", "cpu.dispatch", "cpu.issue", "cpu.complete", "cpu.commit", "cpu.squash",
	"memsys", "core.cleanup", "setup", "campaign", "multicore", "attack",
}

// cpuStages maps (*cpu.Machine) methods to their pipeline stage; every
// other cpu function is cpu.other.
var cpuStages = map[string]string{
	"squash": "cpu.squash", "memOrderSquash": "cpu.squash", "doSquash": "cpu.squash",
	"fetch":    "cpu.fetch",
	"dispatch": "cpu.dispatch", "bindSource": "cpu.dispatch", "setSrc": "cpu.dispatch",
	"issue": "cpu.issue", "execute": "cpu.issue", "retryMem": "cpu.issue", "tryIssueLoad": "cpu.issue",
	"olderStoreBlocks": "cpu.issue", "checkMemOrderViolation": "cpu.issue",
	"processCompletions": "cpu.complete", "processWakes": "cpu.complete", "wakeConsumers": "cpu.complete",
	"resolveCtrl": "cpu.complete", "onLoadData": "cpu.complete", "completeLoad": "cpu.complete",
	"promoteVisibility": "cpu.complete",
	"commit":            "cpu.commit", "freeLQHead": "cpu.commit", "freeSQHead": "cpu.commit",
}

// packageLayers maps the module's packages (below repro/, with internal/
// dropped) to the layer that catches their functions.
var packageLayers = map[string]string{
	"memsys": "memsys", "cache": "cache", "cpu": "cpu.other", "workload": "workload",
	"core": "policy", "invisispec": "policy", "policy": "policy",
	"coherence": "coherence", "dram": "dram", "ceaser": "ceaser", "branch": "branch", "isa": "isa",
	"metrics": "metrics", "trace": "metrics",
	"campaign": "campaign", "obs": "campaign", "faultinject": "campaign",
	"experiments": "experiments", "stats": "experiments",
	"multicore": "multicore", "smt": "multicore",
	"attack": "attack", "sim": "sim",
}

// gcFuncs are runtime functions whose samples are allocation or collection
// work, wherever on the stack they appear.
var gcFuncs = map[string]bool{
	"newobject": true, "growslice": true, "makeslice": true, "gcBgMarkWorker": true,
	"gcAssistAlloc": true, "bgsweep": true, "bgscavenge": true,
}

// copyFuncs are runtime functions that copy or clear memory; they count
// only as the leaf.
var copyFuncs = map[string]bool{
	"duffcopy": true, "duffzero": true, "memmove": true, "typedmemmove": true, "memclrNoHeapPointers": true,
}

// frameLayer returns the layer one frame belongs to, or "" for a frame
// (the standard library, most of the runtime) that passes its time to its
// caller. A function the tables do not name falls to its package's layer,
// so renaming one never breaks attribution.
func frameLayer(fn string, leaf bool) string {
	pkg, recv, name := splitFunc(fn)
	switch pkg {
	case "runtime":
		if gcFuncs[name] || strings.HasPrefix(name, "mallocgc") || strings.HasPrefix(name, "makemap") {
			return "gc"
		}
		if leaf && recv == "" && copyFuncs[name] {
			return "copy"
		}
		return ""
	case "container/heap":
		return "memsys.queue"
	}
	rel, ok := strings.CutPrefix(pkg, "repro/")
	if !ok {
		return ""
	}
	rel = strings.TrimPrefix(rel, "internal/")
	switch {
	case rel == "memsys" && recv == "" && name == "New",
		rel == "memsys" && recv == "Hierarchy" && (name == "PrewarmL2" || name == "PrewarmICache"),
		rel == "cache" && recv == "" && (name == "New" || name == "NewMSHR"),
		rel == "cpu" && recv == "" && name == "New",
		rel == "workload" && recv == "Profile" && name == "Build":
		return "setup"
	case rel == "core" && recv == "CleanupSpec" && name == "OnSquash":
		return "core.cleanup"
	case rel == "memsys" && recv == "txnHeap":
		return "memsys.queue"
	case rel == "cpu" && (recv == "seqHeap" || recv == "eventHeap"):
		return "cpu.queues"
	case rel == "cpu" && recv == "Machine" && cpuStages[name] != "":
		return cpuStages[name]
	}
	return packageLayers[rel]
}

// attribute assigns a sample's self time and lists the layers on its stack.
// Self time goes to gc if any frame allocates or collects, else to copy if
// the leaf copies memory, else to the first frame from the leaf up that
// belongs to a layer, else to other.
func attribute(stack []string) (self string, onStack map[string]bool) {
	onStack = make(map[string]bool)
	for i, fn := range stack {
		l := frameLayer(fn, i == 0)
		if l == "" {
			continue
		}
		if self == "" {
			self = l
		}
		onStack[l] = true
	}
	switch {
	case onStack["gc"]:
		self = "gc"
	case self == "":
		self = "other"
	}
	return self, onStack
}

// splitFunc splits a profile function name such as
// "repro/internal/cpu.(*Machine).issue.func1" into its package path, its
// receiver type without the pointer ("Machine") and the function or method
// name ("issue"). Closure and method-value suffixes are dropped, and so
// are generic type arguments.
func splitFunc(fn string) (pkg, recv, name string) {
	fn = stripBrackets(fn)
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, "", ""
	}
	pkg, rest := fn[:slash+1+dot], fn[slash+1+dot+1:]
	if strings.HasPrefix(rest, "(") {
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return pkg, "", rest
		}
		recv = strings.TrimPrefix(rest[1:end], "*")
		rest = strings.TrimPrefix(rest[end+1:], ".")
		name, _, _ = strings.Cut(rest, ".")
	} else {
		parts := strings.Split(rest, ".")
		name = parts[0]
		if len(parts) > 1 && !isClosure(parts[1]) {
			recv, name = parts[0], parts[1]
		}
	}
	return pkg, recv, strings.TrimSuffix(name, "-fm")
}

// isClosure reports whether a name component is compiler-generated: a
// closure (func1), a go or defer wrapper (gowrap1, deferwrap1) or a nested
// closure index.
func isClosure(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		s = strings.TrimPrefix(s, p)
	}
	return strings.Trim(s, "0123456789") == ""
}

// stripBrackets removes generic type arguments ("[...]") from a name.
func stripBrackets(fn string) string {
	if !strings.Contains(fn, "[") {
		return fn
	}
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// layerProfile accumulates attributed CPU time.
type layerProfile struct {
	samples int
	total   int64            // ns over every sample
	self    map[string]int64 // ns by self layer
	incl    map[string]int64 // ns by every layer on the stack
}

func (lp *layerProfile) add(samples []stackSample) {
	if lp.self == nil {
		lp.self = make(map[string]int64)
		lp.incl = make(map[string]int64)
	}
	for _, s := range samples {
		self, onStack := attribute(s.stack)
		lp.samples++
		lp.total += s.nanos
		lp.self[self] += s.nanos
		for l := range onStack {
			lp.incl[l] += s.nanos
		}
	}
}
