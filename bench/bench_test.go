package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// toySizes shrinks every workload to seconds: two cells at a 5k window,
// one warm pass, and Table 6 plus Figure 11 for the paper.
var toySizes = sizes{
	SquashWindow: 5_000,
	MemWindow:    5_000,
	Paper:        experiments.Options{Instructions: 5_000, SpectreIterations: 5, MTSteps: 1_000},
	PaperIDs:     []string{"table6", "fig11"},
	MaxCells:     2,
	WarmPasses:   1,
	SetupReps:    1,
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSmoke runs every workload at toy size with tracing, which makes one
// untraced and one traced pass, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if n := len(s.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d (want 2-8)", n, len(workloads))
	}
	if len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics (limits 16 and 128)", len(s.EndToEnd), len(s.PerLayer))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q (or the why differs)", i, s.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters (limit 200)", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	var setupBound float64
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setupBound {
			t.Errorf("%s: bound %v, want within (0, 0.25] and at most setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, options{seed: 1, trace: true, sz: toySizes})
			if err != nil {
				t.Fatal(err)
			}
			if tot := rep.total(); tot.failed != 0 || tot.attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", tot.failed, tot.attempted, tot.errs)
			}
			if len(rep.passes) != 2 || rep.passes[0].traced || !rep.passes[1].traced {
				t.Fatalf("want one untraced then one traced pass, got %d passes", len(rep.passes))
			}
			if a, b := rep.passes[0].digest, rep.passes[1].digest; a != b {
				t.Errorf("untraced sim_digest %s, traced %s", a, b)
			}
			holdTo(t, "end-to-end", s.EndToEnd, rep.endToEnd())
			holdTo(t, "per-layer", s.PerLayer, rep.perLayer())
			if cov := rep.perLayer()["profile.coverage"].Value; cov <= 0 {
				t.Errorf("profile.coverage %v", cov)
			}
		})
	}
}

// holdTo checks that got emits exactly the metrics want names, each with
// its unit, and that each end-to-end metric is above zero.
func holdTo(t *testing.T, kind string, want []specMetric, got map[string]metric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", kind, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s not emitted", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		case kind == "end-to-end" && !(g.Value > 0):
			t.Errorf("%s metric %s = %v, want > 0", kind, m.Name, g.Value)
		}
	}
}

// TestByIDRecoversPanic: an experiment that panics comes back as an error
// for the run to count, here through a nil runner.
func TestByIDRecoversPanic(t *testing.T) {
	if _, err := byID(nil, "table1"); err == nil {
		t.Fatal("a panicking experiment returned no error")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "squash-heavy", "--trace", "2"},
		{"--workload", "squash-heavy", "--seconds", "0"},
		{"extra"},
	} {
		var out, errs strings.Builder
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
