package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// ChromeEvent is one trace-event-format record (the JSON the Chrome
// tracing UI and Perfetto load). Ph is the event phase: "X" complete,
// "i" instant, "C" counter, "M" metadata. Ts and Dur are in microseconds;
// the exporter maps one simulated cycle to one microsecond so cycle
// arithmetic survives the viewer round trip unscaled.
type ChromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Dur  uint64 `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Cat  string `json:"cat,omitempty"`
	S    string `json:"s,omitempty"`
	// The trace-event spec requires heterogeneous args; this export is a
	// viewer artifact, never journaled, checksummed, or re-read.
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the JSON Object Format of the trace-event spec.
type chromeTraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track (thread) ids within one exported process.
const (
	TidLoads = iota + 1
	TidSquashes
	TidCleanups
	TidWindows
	TidCommits
)

// trackNames labels the fixed tracks (indexed by tid; 0 unused).
var trackNames = [...]string{"", "loads", "squashes", "cleanups", "exposed-windows", "commits"}

// CounterSeries is one derived counter track: a value per sample, aligned
// with the Samples slice of its ChromeTraceOpts (typically built with
// Rates or RatioDeltas).
type CounterSeries struct {
	Name   string
	Values []float64
}

// ChromeTraceOpts configures one exported process (one run / one policy).
type ChromeTraceOpts struct {
	// Process labels the process track ("cleanupspec/astar"). Exports of
	// several policies into separate files can be diffed side by side in
	// Perfetto by loading both.
	Process string
	// Pid distinguishes processes when several runs are merged into one
	// file (per-policy tracks). Defaults to 1.
	Pid int
	// Events is the run's structured event trace (trace.Ring.Events()).
	Events []trace.Event
	// Samples, when non-empty, adds counter tracks for every gauge in the
	// series.
	Samples []Sample
	// Counters adds caller-derived counter tracks (IPC, squash rate, miss
	// rate), each aligned with Samples.
	Counters []CounterSeries
}

// BuildChromeEvents converts one run's trace ring and interval samples
// into trace-event records. Loads become complete ("X") events by pairing
// each load-issue with its load-complete on the same sequence number;
// speculation windows (KindSpecWindow, Arg = length) become complete
// events on their own track; cleanup restores carry their latency as the
// duration; everything else becomes an instant.
func BuildChromeEvents(opts ChromeTraceOpts) []ChromeEvent {
	pid := opts.Pid
	if pid == 0 {
		pid = 1
	}
	var out []ChromeEvent
	meta := func(name string, tid int, args map[string]any) {
		out = append(out, ChromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
	}
	meta("process_name", 0, map[string]any{"name": opts.Process})
	for tid, name := range trackNames {
		if tid > 0 {
			meta("thread_name", tid, map[string]any{"name": name})
		}
	}

	// Pair load-issue with load-complete by sequence number. The ring is
	// chronological, so an open issue is completed by the next matching
	// complete event.
	openIssue := make(map[uint64]trace.Event)
	instant := func(e trace.Event, tid int, name string, args map[string]any) {
		out = append(out, ChromeEvent{
			Name: name, Ph: "i", Ts: uint64(e.Cycle), Pid: pid, Tid: tid,
			S: "t", Cat: e.Kind.String(), Args: args,
		})
	}
	for _, e := range opts.Events {
		switch e.Kind {
		case trace.KindLoadIssue:
			openIssue[e.Seq] = e
		case trace.KindLoadComplete:
			iss, ok := openIssue[e.Seq]
			if !ok {
				// Completion of a load whose issue predates the ring.
				instant(e, TidLoads, "load-complete", map[string]any{"seq": e.Seq, "line": uint64(e.Line)})
				continue
			}
			delete(openIssue, e.Seq)
			out = append(out, ChromeEvent{
				//simlint:allow cyclemath -- the trace ring preserves emission order: a load's completion event never precedes its issue event
				Name: "load", Ph: "X", Ts: uint64(iss.Cycle), Dur: uint64(e.Cycle - iss.Cycle),
				Pid: pid, Tid: TidLoads, Cat: "load",
				Args: map[string]any{"seq": e.Seq, "pc": uint64(iss.PC), "line": uint64(e.Line)},
			})
		case trace.KindLoadDropped:
			instant(e, TidCleanups, "fill-dropped", map[string]any{"seq": e.Seq, "line": uint64(e.Line)})
		case trace.KindSquash:
			instant(e, TidSquashes, "squash", map[string]any{"seq": e.Seq, "pc": uint64(e.PC)})
		case trace.KindMemOrderSquash:
			instant(e, TidSquashes, "mem-order-squash", map[string]any{"seq": e.Seq, "pc": uint64(e.PC)})
		case trace.KindFetchRedirect:
			instant(e, TidSquashes, "fetch-redirect", map[string]any{"pc": uint64(e.PC), "squashed_loads": e.Arg})
		case trace.KindCleanupInval:
			instant(e, TidCleanups, "cleanup-inval", map[string]any{"line": uint64(e.Line)})
		case trace.KindCleanupRestore:
			out = append(out, ChromeEvent{
				Name: "cleanup-restore", Ph: "X", Ts: uint64(e.Cycle), Dur: e.Arg,
				Pid: pid, Tid: TidCleanups, Cat: "cleanup",
				Args: map[string]any{"line": uint64(e.Line)},
			})
		case trace.KindSpecWindow:
			start := uint64(e.Cycle) - e.Arg
			out = append(out, ChromeEvent{
				Name: "exposed-window", Ph: "X", Ts: start, Dur: e.Arg,
				Pid: pid, Tid: TidWindows, Cat: "window",
				Args: map[string]any{"seq": e.Seq, "line": uint64(e.Line)},
			})
		case trace.KindCommit:
			instant(e, TidCommits, "commit", map[string]any{"seq": e.Seq, "pc": uint64(e.PC)})
		case trace.KindHalt:
			instant(e, TidCommits, "halt", map[string]any{"seq": e.Seq})
		default:
			instant(e, TidCommits, e.Kind.String(), map[string]any{"seq": e.Seq, "arg": e.Arg})
		}
	}
	// Loads still in flight at the end of the trace window, in sequence
	// order so the export is byte-stable for a deterministic run.
	inflight := make([]trace.Event, 0, len(openIssue))
	for _, iss := range openIssue {
		inflight = append(inflight, iss)
	}
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].Seq < inflight[j].Seq })
	for _, iss := range inflight {
		instant(iss, TidLoads, "load-inflight", map[string]any{"seq": iss.Seq, "line": uint64(iss.Line)})
	}

	// Counter tracks: gauges from the samples, plus caller-derived series.
	for _, name := range gaugeNames(opts.Samples) {
		for _, s := range opts.Samples {
			out = append(out, ChromeEvent{
				Name: name, Ph: "C", Ts: s.Cycle, Pid: pid,
				Args: map[string]any{"value": s.Gauges[name]},
			})
		}
	}
	for _, cs := range opts.Counters {
		for i, s := range opts.Samples {
			if i >= len(cs.Values) {
				break
			}
			out = append(out, ChromeEvent{
				Name: cs.Name, Ph: "C", Ts: s.Cycle, Pid: pid,
				Args: map[string]any{"value": cs.Values[i]},
			})
		}
	}
	return out
}

// RunTrace is the Perfetto view of one instrumented run: its event trace,
// a counter track per gauge, and the derived IPC, squashes per kilo-cycle
// and L1-D miss-rate tracks, all on the events' absolute clock.
func RunTrace(process string, events []trace.Event, col *Collector) ChromeTraceOpts {
	samples := col.Samples()
	squashes := Rates(samples, "cpu.squashes")
	for i := range squashes {
		squashes[i] *= 1000
	}
	// Samples count cycles from the window's start and events from the
	// run's: put the counter tracks on the events' clock.
	placed := make([]Sample, len(samples))
	for i, s := range samples {
		s.Cycle += col.WindowStart
		placed[i] = s
	}
	return ChromeTraceOpts{
		Process: process,
		Events:  events,
		Samples: placed,
		Counters: []CounterSeries{
			{Name: "ipc", Values: Rates(samples, "cpu.committed")},
			{Name: "squash-per-kcycle", Values: squashes},
			{Name: "l1d-miss-rate", Values: RatioDeltas(samples, "l1d.misses", "l1d.accesses")},
		},
	}
}

// WriteChromeTraceFile writes runs to path as one merged trace (see
// ExportChromeTraceMulti).
func WriteChromeTraceFile(path string, runs ...ChromeTraceOpts) error {
	return writeFile(path, func(w io.Writer) error { return ExportChromeTraceMulti(w, runs) })
}

// ExportChromeTraceMulti writes runs as one trace-event JSON file (object
// form, with displayTimeUnit set so one cycle reads as one microsecond),
// one process per run (distinct pids), so per-policy squash/cleanup/window
// tracks sit side by side in the Perfetto UI. Unset Pids are assigned
// 1, 2, ... in slice order.
func ExportChromeTraceMulti(w io.Writer, runs []ChromeTraceOpts) error {
	var events []ChromeEvent
	for i, opts := range runs {
		if opts.Pid == 0 {
			opts.Pid = i + 1
		}
		events = append(events, BuildChromeEvents(opts)...)
	}
	file := chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("metrics: writing chrome trace: %w", err)
	}
	return nil
}

func gaugeNames(samples []Sample) []string {
	if len(samples) == 0 {
		return nil
	}
	return sortedKeys(samples[0].Gauges)
}
