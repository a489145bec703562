package benchrun

import (
	"bytes"
	"strings"
	"testing"
)

func baseFor(t *testing.T) Baseline {
	t.Helper()
	return Baseline{Results: []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 100, AllocsPerOp: 0},
		{Name: "BenchmarkPredictor", NsPerOp: 50, AllocsPerOp: 2},
	}}
}

func TestDiffCleanRunPasses(t *testing.T) {
	fresh := []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 110, AllocsPerOp: 0}, // +10% < 25%
		{Name: "BenchmarkPredictor", NsPerOp: 45, AllocsPerOp: 2},    // faster
	}
	d := Diff(baseFor(t), fresh, Thresholds{})
	if d.Regressed() {
		t.Fatalf("clean run flagged as regressed: %+v", d)
	}
	if len(d.Rows) != 2 || d.Rows[0].Name != "BenchmarkCacheLookup" {
		t.Fatalf("rows = %+v", d.Rows)
	}
}

func TestDiffTimeRegressionTrips(t *testing.T) {
	fresh := []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 140, AllocsPerOp: 0}, // +40% > 25%
		{Name: "BenchmarkPredictor", NsPerOp: 50, AllocsPerOp: 2},
	}
	d := Diff(baseFor(t), fresh, Thresholds{})
	if !d.Regressed() {
		t.Fatal("40% slowdown not flagged")
	}
	if !d.Rows[0].Regressed || d.Rows[1].Regressed {
		t.Fatalf("wrong rows flagged: %+v", d.Rows)
	}
	if !strings.Contains(d.Rows[0].Reason, "slower") {
		t.Fatalf("reason = %q", d.Rows[0].Reason)
	}
}

func TestDiffAllocRegressionIsStrict(t *testing.T) {
	fresh := []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 100, AllocsPerOp: 1}, // 0 → 1: trips
		{Name: "BenchmarkPredictor", NsPerOp: 50, AllocsPerOp: 2},
	}
	d := Diff(baseFor(t), fresh, Thresholds{})
	if !d.Regressed() || !strings.Contains(d.Rows[0].Reason, "allocs/op") {
		t.Fatalf("alloc regression not flagged: %+v", d.Rows)
	}
	// With slack it passes.
	d = Diff(baseFor(t), fresh, Thresholds{AllocSlack: 1})
	if d.Regressed() {
		t.Fatalf("alloc slack not honored: %+v", d.Rows)
	}
}

func TestDiffAllocRatioAbsorbsAmortizationNoise(t *testing.T) {
	// An alloc-heavy benchmark drifting by a handful of allocs (one-time
	// setup divided by a different b.N) must pass under the default 1%
	// ratio; a real jump must still trip.
	base := Baseline{Results: []Result{{Name: "BenchmarkSimulatorThroughput", NsPerOp: 3e7, AllocsPerOp: 339597}}}
	drift := []Result{{Name: "BenchmarkSimulatorThroughput", NsPerOp: 3e7, AllocsPerOp: 339604}}
	if d := Diff(base, drift, Thresholds{}); d.Regressed() {
		t.Fatalf("amortization drift flagged: %+v", d.Rows)
	}
	jump := []Result{{Name: "BenchmarkSimulatorThroughput", NsPerOp: 3e7, AllocsPerOp: 360000}}
	if d := Diff(base, jump, Thresholds{}); !d.Regressed() {
		t.Fatal("6% alloc jump not flagged")
	}
	// The ratio gives no headroom at zero: 0 → 1 still trips.
	zbase := Baseline{Results: []Result{{Name: "BenchmarkCacheLookup", NsPerOp: 100, AllocsPerOp: 0}}}
	one := []Result{{Name: "BenchmarkCacheLookup", NsPerOp: 100, AllocsPerOp: 1}}
	if d := Diff(zbase, one, Thresholds{}); !d.Regressed() {
		t.Fatal("zero-alloc benchmark gained an alloc without tripping")
	}
}

func TestDiffMissingBenchmarkRegresses(t *testing.T) {
	fresh := []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 100},
		{Name: "BenchmarkNewThing", NsPerOp: 10},
	}
	d := Diff(baseFor(t), fresh, Thresholds{})
	if !d.Regressed() {
		t.Fatal("missing baseline benchmark not flagged")
	}
	if len(d.Missing) != 1 || d.Missing[0] != "BenchmarkPredictor" {
		t.Fatalf("missing = %v", d.Missing)
	}
	if len(d.Added) != 1 || d.Added[0] != "BenchmarkNewThing" {
		t.Fatalf("added = %v", d.Added)
	}
}

func TestHandicapSlowsAndTripsGate(t *testing.T) {
	fresh := []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 100, OpsPerSec: 1e7, AllocsPerOp: 0},
		{Name: "BenchmarkPredictor", NsPerOp: 50, AllocsPerOp: 2},
	}
	slowed := Handicap(fresh, map[string]float64{"BenchmarkCacheLookup": 2})
	if slowed[0].NsPerOp != 200 || slowed[0].OpsPerSec != 5e6 {
		t.Fatalf("handicap result = %+v", slowed[0])
	}
	if fresh[0].NsPerOp != 100 {
		t.Fatal("Handicap mutated its input")
	}
	if slowed[1].NsPerOp != 50 {
		t.Fatal("handicap leaked onto an unselected benchmark")
	}
	// ≤1 factors are inert.
	same := Handicap(fresh, map[string]float64{"BenchmarkPredictor": 0.5})
	if same[1].NsPerOp != 50 {
		t.Fatal("speed-up handicap applied")
	}
	if !Diff(baseFor(t), slowed, Thresholds{}).Regressed() {
		t.Fatal("handicapped run did not trip the gate")
	}
}

func TestDiffWriteRendersVerdicts(t *testing.T) {
	fresh := []Result{
		{Name: "BenchmarkCacheLookup", NsPerOp: 140, AllocsPerOp: 0},
	}
	base := Baseline{Results: []Result{{Name: "BenchmarkCacheLookup", NsPerOp: 100}}}
	d := Diff(base, fresh, Thresholds{})
	var buf bytes.Buffer
	d.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "verdict: REGRESSED") {
		t.Fatalf("table:\n%s", out)
	}
	var buf2 bytes.Buffer
	Diff(base, fresh, Thresholds{}).Write(&buf2)
	if out != buf2.String() {
		t.Fatal("diff table not deterministic")
	}
}
