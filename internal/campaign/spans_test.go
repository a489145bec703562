package campaign

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/sim"
)

// spanGrid is a small grid for the tracing-identity tests: wide enough to
// keep an 8-worker pool busy, small enough to simulate quickly.
func spanGrid() Grid {
	return Grid{
		Name:         "spans",
		Workloads:    []string{"astar", "gcc"},
		Policies:     []sim.Policy{sim.NonSecure, sim.CleanupSpec},
		Seeds:        []uint64{1, 2},
		Instructions: 4_000,
	}
}

// TestTracingDoesNotChangeResults pins the observer property of the span
// plane: a campaign run with tracing attached must export byte-identical
// results to the same campaign untraced. Spans watch the engine; they may
// never steer it.
func TestTracingDoesNotChangeResults(t *testing.T) {
	jobs := spanGrid().Jobs()

	plain := NewEngine()
	plain.Workers = 4
	plainResults := plain.Run(jobs)

	traced := NewEngine()
	traced.Workers = 4
	sink := obs.NewSink()
	traced.Trace = obs.NewTracer(sink)
	tracedResults := traced.Run(jobs)

	var a, b strings.Builder
	if err := ResultsCSV(&a, plainResults); err != nil {
		t.Fatal(err)
	}
	if err := ResultsCSV(&b, tracedResults); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("traced campaign export differs from untraced export")
	}
	if len(sink.Spans()) == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestSpanJSONLWorkerCountInvariant pins span-plane determinism: the
// canonical span JSONL of a 1-worker run and an 8-worker run of the same
// grid must be byte-identical. Span identity is content-derived (job key,
// stage name, sibling ordinal); only wall-clock fields vary with schedule,
// and the canonical form strips them.
func TestSpanJSONLWorkerCountInvariant(t *testing.T) {
	jobs := spanGrid().Jobs()

	run := func(workers int) []byte {
		t.Helper()
		eng := NewEngine()
		eng.Workers = workers
		sink := obs.NewSink()
		eng.Trace = obs.NewTracer(sink)
		for _, r := range eng.Run(jobs) {
			if r.Err != nil {
				t.Fatalf("job %s failed: %v", r.Job, r.Err)
			}
		}
		data, err := obs.CanonicalJSONL(sink.Spans())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial := run(1)
	pooled := run(8)
	if string(serial) != string(pooled) {
		t.Fatalf("canonical span JSONL differs between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			firstDiffContext(string(serial), string(pooled)), "")
	}
	if len(serial) == 0 {
		t.Fatal("canonical span JSONL is empty")
	}
}

// firstDiffContext returns the first differing line pair, so a failure
// points at the offending span instead of dumping two full files.
func firstDiffContext(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return "line " + strconv.Itoa(i+1) + ":\n  1-worker: " + x + "\n  8-worker: " + y
		}
	}
	return "(no line-level difference found)"
}
