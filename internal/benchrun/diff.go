package benchrun

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Thresholds bounds how much a fresh run may regress against a baseline
// before Diff flags it.
type Thresholds struct {
	// TimeRatio is the allowed fractional ns/op slowdown: fresh ns/op may
	// be at most base*(1+TimeRatio). 0.25 means "25% slower still
	// passes". Wall time is machine- and load-dependent, so CI uses a
	// generous default here; allocs are the strict axis. (Default 0.25.)
	TimeRatio float64
	// AllocSlack is the allowed absolute allocs/op increase. Allocation
	// counts are deterministic for a fixed build, so the default is 0:
	// one new alloc on a hot path is a finding, not noise.
	AllocSlack float64
}

// allocRatio is the allowed fractional allocs/op increase; the effective
// bound per benchmark is base + max(AllocSlack, allocRatio*base).
// Zero-alloc benchmarks are unaffected (any ratio of 0 is 0 — one new
// alloc still trips), while alloc-heavy simulator benchmarks get headroom
// for iteration-count amortization noise (one-time setup allocations
// divided by a different b.N).
const allocRatio = 0.01

// withDefaults fills unset thresholds.
func (t Thresholds) withDefaults() Thresholds {
	if t.TimeRatio == 0 {
		t.TimeRatio = 0.25
	}
	return t
}

// allocBound is the allowed allocs/op for one benchmark.
func (t Thresholds) allocBound(base float64) float64 {
	return base + max(t.AllocSlack, allocRatio*base)
}

// DiffRow is one benchmark's baseline-vs-fresh comparison.
type DiffRow struct {
	Name       string
	BaseNs     float64
	FreshNs    float64
	TimeDelta  float64 // fresh/base - 1 (+0.30 = 30% slower)
	BaseAllocs float64
	NewAllocs  float64
	Regressed  bool
	Reason     string
}

// DiffReport is the outcome of one baseline comparison.
type DiffReport struct {
	Rows []DiffRow
	// Missing lists baseline benchmarks absent from the fresh run — a
	// silently deleted benchmark would otherwise un-gate itself, so a
	// missing row is a regression too.
	Missing []string
	// Added lists fresh benchmarks with no baseline row (informational:
	// they start gating once recorded into the next baseline).
	Added []string
}

// Regressed reports whether any row (or a missing benchmark) trips the
// gate.
func (d DiffReport) Regressed() bool {
	if len(d.Missing) > 0 {
		return true
	}
	for _, r := range d.Rows {
		if r.Regressed {
			return true
		}
	}
	return false
}

// Diff compares a fresh run against a committed baseline. Rows come back
// in baseline order; a benchmark is regressed when its ns/op exceeds the
// time threshold or its allocs/op exceed the allocation bound.
func Diff(base Baseline, fresh []Result, th Thresholds) DiffReport {
	th = th.withDefaults()
	byName := make(map[string]Result, len(fresh))
	for _, r := range fresh {
		byName[r.Name] = r
	}
	var d DiffReport
	seen := make(map[string]bool, len(base.Results))
	for _, b := range base.Results {
		seen[b.Name] = true
		f, ok := byName[b.Name]
		if !ok {
			d.Missing = append(d.Missing, b.Name)
			continue
		}
		row := DiffRow{
			Name:       b.Name,
			BaseNs:     b.NsPerOp,
			FreshNs:    f.NsPerOp,
			BaseAllocs: b.AllocsPerOp,
			NewAllocs:  f.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			row.TimeDelta = f.NsPerOp/b.NsPerOp - 1
		}
		switch {
		case row.TimeDelta > th.TimeRatio:
			row.Regressed = true
			row.Reason = fmt.Sprintf("%.1f%% slower (limit %.0f%%)", row.TimeDelta*100, th.TimeRatio*100)
		case f.AllocsPerOp > th.allocBound(b.AllocsPerOp):
			row.Regressed = true
			row.Reason = fmt.Sprintf("allocs/op %.0f → %.0f (bound %.0f)", b.AllocsPerOp, f.AllocsPerOp, th.allocBound(b.AllocsPerOp))
		}
		d.Rows = append(d.Rows, row)
	}
	for _, r := range fresh {
		if !seen[r.Name] {
			d.Added = append(d.Added, r.Name)
		}
	}
	sort.Strings(d.Added)
	return d
}

// Write renders the report as an aligned table with a verdict line,
// deterministic for a given report.
func (d DiffReport) Write(w io.Writer) {
	fmt.Fprintf(w, "%-34s %14s %14s %9s %9s  %s\n",
		"benchmark", "base ns/op", "fresh ns/op", "Δtime", "allocs", "verdict")
	for _, r := range d.Rows {
		verdict := "ok"
		if r.Regressed {
			verdict = "REGRESSED: " + r.Reason
		}
		alloc := fmt.Sprintf("%.0f", r.NewAllocs)
		if r.NewAllocs != r.BaseAllocs {
			alloc = fmt.Sprintf("%.0f→%.0f", r.BaseAllocs, r.NewAllocs)
		}
		fmt.Fprintf(w, "%-34s %14.1f %14.1f %+8.1f%% %9s  %s\n",
			r.Name, r.BaseNs, r.FreshNs, r.TimeDelta*100, alloc, verdict)
	}
	for _, name := range d.Missing {
		fmt.Fprintf(w, "%-34s %14s %14s %9s %9s  REGRESSED: missing from fresh run\n", name, "-", "-", "-", "-")
	}
	for _, name := range d.Added {
		fmt.Fprintf(w, "%-34s %14s %14s %9s %9s  new (no baseline row)\n", name, "-", "-", "-", "-")
	}
	if d.Regressed() {
		fmt.Fprintln(w, "verdict: REGRESSED")
	} else {
		fmt.Fprintln(w, "verdict: ok")
	}
}

// Handicap synthetically slows selected fresh results by a factor —
// the self-test hook behind `benchrun diff -handicap`: a handicapped
// diff must trip the gate, proving the gate can actually fail. Factors
// ≤ 1 leave results unchanged (a handicap never speeds anything up).
func Handicap(results []Result, factors map[string]float64) []Result {
	out := make([]Result, len(results))
	copy(out, results)
	for i := range out {
		f := factors[out[i].Name]
		if f <= 1 || math.IsNaN(f) {
			continue
		}
		out[i].NsPerOp *= f
		if out[i].NsPerOp > 0 {
			out[i].OpsPerSec = 1e9 / out[i].NsPerOp
		}
	}
	return out
}
