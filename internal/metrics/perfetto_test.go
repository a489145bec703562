package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func testTraceEvents() []trace.Event {
	return []trace.Event{
		{Cycle: 10, Kind: trace.KindLoadIssue, Seq: 1, PC: 0x40, Line: 7},
		{Cycle: 12, Kind: trace.KindLoadIssue, Seq: 2, PC: 0x44, Line: 9},
		{Cycle: 25, Kind: trace.KindLoadComplete, Seq: 1, Line: 7},
		{Cycle: 30, Kind: trace.KindSquash, Seq: 5, PC: 0x48},
		{Cycle: 31, Kind: trace.KindFetchRedirect, PC: 0x20, Arg: 3},
		{Cycle: 32, Kind: trace.KindCleanupInval, Line: 7},
		{Cycle: 35, Kind: trace.KindCleanupRestore, Line: 8, Arg: 12},
		{Cycle: 40, Kind: trace.KindSpecWindow, Seq: 1, Line: 7, Arg: 15},
		{Cycle: 41, Kind: trace.KindCommit, Seq: 6, PC: 0x4c},
		{Cycle: 50, Kind: trace.KindHalt, Seq: 7},
	}
}

func testSamples() []Sample {
	return []Sample{
		{Cycle: 20, Counters: map[string]uint64{"cpu.committed": 30}, Gauges: map[string]float64{"mem.pending_txns": 2}},
		{Cycle: 40, Counters: map[string]uint64{"cpu.committed": 70}, Gauges: map[string]float64{"mem.pending_txns": 0}},
	}
}

// TestBuildChromeEventsWellFormed pins the trace-event invariants the
// Chrome/Perfetto loader cares about: known phases, positive pid, a named
// tid track for every non-counter event, and metadata naming every track.
func TestBuildChromeEventsWellFormed(t *testing.T) {
	evs := BuildChromeEvents(ChromeTraceOpts{
		Process: "cleanupspec/astar",
		Events:  testTraceEvents(),
		Samples: testSamples(),
		Counters: []CounterSeries{
			{Name: "ipc", Values: []float64{1.5, 2.0}},
		},
	})
	if len(evs) == 0 {
		t.Fatal("no events built")
	}
	validPh := map[string]bool{"X": true, "i": true, "C": true, "M": true}
	namedTracks := map[int]bool{}
	for i, e := range evs {
		if !validPh[e.Ph] {
			t.Fatalf("event %d has unknown phase %q", i, e.Ph)
		}
		if e.Pid <= 0 {
			t.Fatalf("event %d has pid %d, want > 0", i, e.Pid)
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			namedTracks[e.Tid] = true
		}
		if (e.Ph == "X" || e.Ph == "i") && e.Tid == 0 {
			t.Fatalf("event %d (%s) is on tid 0 (unnamed track)", i, e.Name)
		}
		if e.Ph == "i" && e.S == "" {
			t.Fatalf("instant event %d missing scope", i)
		}
	}
	for _, tid := range []int{TidLoads, TidSquashes, TidCleanups, TidWindows, TidCommits} {
		if !namedTracks[tid] {
			t.Fatalf("track %d has no thread_name metadata", tid)
		}
	}
}

func findEvent(evs []ChromeEvent, name string) (ChromeEvent, bool) {
	for _, e := range evs {
		if e.Name == name {
			return e, true
		}
	}
	return ChromeEvent{}, false
}

func TestBuildChromeEventsSemantics(t *testing.T) {
	evs := BuildChromeEvents(ChromeTraceOpts{Process: "p", Events: testTraceEvents(), Samples: testSamples()})

	// Load issue@10 + complete@25 pair into one complete event.
	load, ok := findEvent(evs, "load")
	if !ok || load.Ph != "X" || load.Ts != 10 || load.Dur != 15 || load.Tid != TidLoads {
		t.Fatalf("paired load event: %+v", load)
	}
	// The spec window (end=40, len=15) spans [25, 40] on the windows track.
	win, ok := findEvent(evs, "exposed-window")
	if !ok || win.Ph != "X" || win.Ts != 25 || win.Dur != 15 || win.Tid != TidWindows {
		t.Fatalf("exposed-window event: %+v", win)
	}
	// The restore carries its latency as duration.
	rst, ok := findEvent(evs, "cleanup-restore")
	if !ok || rst.Ph != "X" || rst.Dur != 12 || rst.Tid != TidCleanups {
		t.Fatalf("cleanup-restore event: %+v", rst)
	}
	// The load issued at 12 never completed: it must surface as in-flight,
	// not vanish.
	inflight, ok := findEvent(evs, "load-inflight")
	if !ok || inflight.Ts != 12 {
		t.Fatalf("in-flight load: %+v", inflight)
	}
	// Gauges become counter tracks, one value per sample.
	n := 0
	for _, e := range evs {
		if e.Ph == "C" && e.Name == "mem.pending_txns" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("gauge counter events = %d, want one per sample", n)
	}
}

// TestExportChromeTraceValidJSON round-trips the export through a JSON
// decode and pins determinism: two exports of the same run are identical
// bytes.
func TestExportChromeTraceValidJSON(t *testing.T) {
	opts := ChromeTraceOpts{Process: "p", Events: testTraceEvents(), Samples: testSamples(),
		Counters: []CounterSeries{{Name: "ipc", Values: []float64{1, 2}}}}
	var a, b bytes.Buffer
	if err := ExportChromeTraceMulti(&a, []ChromeTraceOpts{opts}); err != nil {
		t.Fatal(err)
	}
	if err := ExportChromeTraceMulti(&b, []ChromeTraceOpts{opts}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export is not deterministic")
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 || file.Unit == "" {
		t.Fatal("export missing traceEvents or displayTimeUnit")
	}
	for i, e := range file.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, e)
			}
		}
	}
}

// TestExportChromeTraceMulti checks per-policy process separation: two runs
// merge into one file with distinct pids and their own process_name.
func TestExportChromeTraceMulti(t *testing.T) {
	var buf bytes.Buffer
	err := ExportChromeTraceMulti(&buf, []ChromeTraceOpts{
		{Process: "nonsecure/astar", Events: testTraceEvents()},
		{Process: "cleanupspec/astar", Events: testTraceEvents()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	pids := map[int]string{}
	for _, e := range file.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			pids[e.Pid] = e.Args["name"].(string)
		}
	}
	if len(pids) != 2 || pids[1] != "nonsecure/astar" || pids[2] != "cleanupspec/astar" {
		t.Fatalf("process tracks: %v", pids)
	}
}

// TestRunTraceAndFiles checks the shared export helpers: RunTrace derives
// the IPC, squash-rate and miss-rate tracks from the samples,
// WriteChromeTraceFile writes what ExportChromeTraceMulti writes, and
// WriteSeriesFile picks CSV by the .csv suffix and JSON Lines otherwise.
func TestRunTraceAndFiles(t *testing.T) {
	samples := testSamples()
	run := RunTrace("cleanupspec/astar", testTraceEvents(), samples)
	var names []string
	for _, c := range run.Counters {
		names = append(names, c.Name)
		if len(c.Values) != len(samples) {
			t.Errorf("track %s has %d values, want %d", c.Name, len(c.Values), len(samples))
		}
	}
	if got := strings.Join(names, ","); got != "ipc,squash-per-kcycle,l1d-miss-rate" {
		t.Fatalf("counter tracks %s", got)
	}
	if ipc := run.Counters[0].Values; ipc[0] != 1.5 || ipc[1] != 2 {
		t.Errorf("ipc track %v, want [1.5 2]", ipc)
	}

	dir := t.TempDir()
	check := func(path string, write func(w *bytes.Buffer) error) {
		t.Helper()
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s:\n%s\nwant:\n%s", filepath.Base(path), got, want.Bytes())
		}
	}
	tracePath := filepath.Join(dir, "t.json")
	if err := WriteChromeTraceFile(tracePath, run, run); err != nil {
		t.Fatal(err)
	}
	check(tracePath, func(w *bytes.Buffer) error { return ExportChromeTraceMulti(w, []ChromeTraceOpts{run, run}) })
	for _, name := range []string{"s.csv", "s.jsonl"} {
		path := filepath.Join(dir, name)
		if err := WriteSeriesFile(path, samples); err != nil {
			t.Fatal(err)
		}
		if name == "s.csv" {
			check(path, func(w *bytes.Buffer) error { return WriteCSV(w, samples) })
		} else {
			check(path, func(w *bytes.Buffer) error { return WriteJSONL(w, samples) })
		}
	}
	if err := WriteSeriesFile(filepath.Join(dir, "missing", "s.csv"), samples); err == nil {
		t.Error("WriteSeriesFile into a missing directory succeeded")
	}
}
