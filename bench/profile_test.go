package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/sim"
)

func TestSplitFunc(t *testing.T) {
	for _, c := range []struct{ fn, pkg, recv, name string }{
		{"runtime.mallocgc", "runtime", "", "mallocgc"},
		{"runtime.(*mheap).alloc", "runtime", "mheap", "alloc"},
		{"container/heap.Push", "container/heap", "", "Push"},
		{"repro/internal/cpu.(*Machine).issue", "repro/internal/cpu", "Machine", "issue"},
		{"repro/internal/cpu.(*Machine).issue.func1", "repro/internal/cpu", "Machine", "issue"},
		{"repro/internal/cpu.(*Machine).onLoadData-fm", "repro/internal/cpu", "Machine", "onLoadData"},
		{"repro/internal/memsys.txnHeap.Less", "repro/internal/memsys", "txnHeap", "Less"},
		{"repro/internal/memsys.New", "repro/internal/memsys", "", "New"},
		{"repro/internal/memsys.New.func2", "repro/internal/memsys", "", "New"},
		{"repro/internal/campaign.(*Engine).Run.gowrap1", "repro/internal/campaign", "Engine", "Run"},
		{"repro/internal/x.(*heap[...]).push", "repro/internal/x", "heap", "push"},
		{"repro/internal/x.sortBy[go.shape.int].func1", "repro/internal/x", "", "sortBy"},
	} {
		pkg, recv, name := splitFunc(c.fn)
		if pkg != c.pkg || recv != c.recv || name != c.name {
			t.Errorf("splitFunc(%q) = %q, %q, %q; want %q, %q, %q", c.fn, pkg, recv, name, c.pkg, c.recv, c.name)
		}
	}
}

// TestAttribute pins the layer table's rules on synthetic stacks, leaf
// first.
func TestAttribute(t *testing.T) {
	const (
		issue    = "repro/internal/cpu.(*Machine).issue"
		load     = "repro/internal/memsys.(*Hierarchy).Load"
		lookup   = "repro/internal/cache.(*Cache).Lookup"
		onSquash = "repro/internal/core.(*CleanupSpec).OnSquash"
	)
	for _, c := range []struct {
		name  string
		stack []string
		self  string
		incl  []string
	}{
		{"innermost layer wins", []string{lookup, load, issue}, "cache", []string{"cache", "cpu.issue", "memsys"}},
		{"library frames pass time to their caller", []string{"sort.Sort", "strconv.Itoa", load, issue}, "memsys", []string{"cpu.issue", "memsys"}},
		{"allocation anywhere is gc", []string{"runtime.nextFreeFast", "runtime.mallocgc", load, issue}, "gc", []string{"cpu.issue", "gc", "memsys"}},
		{"gc beats a copying leaf", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgcLarge", issue}, "gc", []string{"copy", "cpu.issue", "gc"}},
		{"background mark worker is gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc", []string{"gc"}},
		{"copying leaf is copy", []string{"runtime.duffcopy", "repro/internal/cpu.(*Machine).dispatch"}, "copy", []string{"copy", "cpu.dispatch"}},
		{"copy counts only as the leaf", []string{"runtime.bulkBarrierPreWrite", "runtime.typedmemmove", "repro/internal/cpu.(*Machine).fetch"}, "cpu.fetch", []string{"cpu.fetch"}},
		{"cleanup is OnSquash", []string{load, onSquash, "repro/internal/cpu.(*Machine).doSquash"}, "memsys", []string{"core.cleanup", "cpu.squash", "memsys"}},
		{"OnSquash's own time", []string{onSquash, "repro/internal/cpu.(*Machine).doSquash"}, "core.cleanup", []string{"core.cleanup", "cpu.squash"}},
		{"construction is setup", []string{"repro/internal/cache.New", "repro/internal/memsys.New", "repro/sim.runProgram"}, "setup", []string{"setup", "sim"}},
		{"prewarm through the cache is cache, inclusive setup", []string{lookup, "repro/internal/memsys.(*Hierarchy).PrewarmL2"}, "cache", []string{"cache", "setup"}},
		{"typed cpu heaps are cpu.queues", []string{"repro/internal/cpu.(*seqHeap).push", issue}, "cpu.queues", []string{"cpu.issue", "cpu.queues"}},
		{"memsys heap is memsys.queue", []string{"container/heap.up", "container/heap.Push", load}, "memsys.queue", []string{"memsys", "memsys.queue"}},
		{"renamed cpu method falls to cpu.other", []string{"repro/internal/cpu.(*Machine).fetchRenamed"}, "cpu.other", []string{"cpu.other"}},
		{"renamed cleanup falls to policy", []string{"repro/internal/core.(*CleanupSpec).undoSquash"}, "policy", []string{"policy"}},
		{"renamed constructor falls to memsys", []string{"repro/internal/memsys.NewHierarchy"}, "memsys", []string{"memsys"}},
		{"grouped packages", []string{"repro/internal/smt.(*Pair).Run", "repro/internal/experiments.(*Runner).Multiprogrammed"}, "multicore", []string{"experiments", "multicore"}},
		{"no layer on the stack is other", []string{"runtime.futex", "runtime.schedule"}, "other", nil},
	} {
		self, onStack := attribute(c.stack)
		var incl []string
		for l := range onStack {
			incl = append(incl, l)
		}
		sort.Strings(incl)
		if self != c.self || !reflect.DeepEqual(incl, c.incl) {
			t.Errorf("%s: self %q incl %v; want %q %v", c.name, self, incl, c.self, c.incl)
		}
	}
}

func TestSelfSumsToTotal(t *testing.T) {
	var lp layerProfile
	lp.add([]stackSample{
		{[]string{"repro/internal/cache.(*Cache).Lookup", "repro/internal/memsys.(*Hierarchy).Load"}, 10},
		{[]string{"runtime.mallocgc", "repro/internal/cpu.(*Machine).dispatch"}, 20},
		{[]string{"runtime.memmove", "repro/internal/cpu.(*Machine).fetch"}, 30},
		{[]string{"runtime.futex"}, 40},
		{nil, 50},
	})
	var sum int64
	for _, l := range layers {
		sum += lp.self[l]
	}
	if sum != lp.total || lp.total != 150 || lp.samples != 5 {
		t.Fatalf("self sums to %d over %d samples, total %d", sum, lp.samples, lp.total)
	}
	for l := range lp.self {
		if !contains(layers, l) {
			t.Errorf("self time in %q, which is not in the layer table", l)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (b *pb) key(num, wire int) { *b = binary.AppendUvarint(*b, uint64(num<<3|wire)) }
func (b *pb) varint(num int, v uint64) {
	b.key(num, 0)
	*b = binary.AppendUvarint(*b, v)
}
func (b *pb) bytes(num int, data []byte) {
	b.key(num, 2)
	*b = binary.AppendUvarint(*b, uint64(len(data)))
	*b = append(*b, data...)
}
func (b *pb) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	b.bytes(num, inner)
}

// TestParseProfile decodes a hand-built profile: a location whose line
// entries hold an inlined call, packed and unpacked repeated fields, and
// the nanosecond value column.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/cache.(*Cache).Lookup", "repro/internal/memsys.(*Hierarchy).Load", "repro/internal/cpu.(*Machine).issue"}
	var p pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		p.bytes(1, vt)
	}
	var s1 pb // packed
	s1.packed(1, 1, 2)
	s1.packed(2, 1, 10_000_000)
	p.bytes(2, s1)
	var s2 pb // unpacked
	s2.varint(1, 2)
	s2.varint(2, 2)
	s2.varint(2, 20_000_000)
	p.bytes(2, s2)
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}} { // location 1: Lookup inlined into Load
		var l pb
		l.varint(1, loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			l.bytes(4, line)
		}
		p.bytes(4, l)
	}
	for id := uint64(1); id <= 3; id++ {
		var f pb
		f.varint(1, id)
		f.varint(2, id+4)
		p.bytes(5, f)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.varint(12, 10_000_000)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{strs[5], strs[6], strs[7]}, 10_000_000},
		{[]string{strs[7]}, 20_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if _, err := parseProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestRealProfileCoverage profiles about a second of simulation and checks
// that the decoded samples account for at least 90% of the process's CPU
// time.
func TestRealProfileCoverage(t *testing.T) {
	var buf bytes.Buffer
	cpu0 := cpuTime()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := sim.RunWorkload("astar", sim.Config{Instructions: 100_000}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	cpu := cpuTime() - cpu0
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var lp layerProfile
	lp.add(samples)
	if cov := float64(lp.total) / float64(cpu); cov < 0.9 {
		t.Errorf("profile covers %.2f of %v CPU time (%d samples)", cov, cpu, lp.samples)
	}
	if lp.incl["cpu.issue"] == 0 || lp.incl["memsys"] == 0 {
		t.Errorf("no samples under cpu.issue or memsys: %v", lp.incl)
	}
}
