package campaign

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/sim"
)

// Grid is the declarative campaign: every combination of workload ×
// policy × seed becomes one job.
type Grid struct {
	Name         string
	Workloads    []string
	Policies     []sim.Policy
	Seeds        []uint64
	Instructions uint64
}

// Jobs expands the grid in deterministic (workload, policy, seed) order.
func (g Grid) Jobs() []Job {
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var jobs []Job
	for _, wl := range g.Workloads {
		for _, p := range g.Policies {
			for _, seed := range seeds {
				jobs = append(jobs, Job{Workload: wl, Config: sim.Config{Policy: p, Instructions: g.Instructions, Seed: seed}})
			}
		}
	}
	return jobs
}

// GridNames lists the predefined grids in presentation order.
func GridNames() []string { return []string{"all", "paper", "headline", "quick"} }

// GridByName returns one of the predefined grids:
//
//   - all: every workload × every policy — the full evaluation surface.
//   - paper: every workload × the paper's Table 6 policies (non-secure
//     baseline, CleanupSpec, both InvisiSpec models).
//   - headline: every workload × {nonsecure, cleanupspec} — Figure 12.
//   - quick: four representative workloads × {nonsecure, cleanupspec} — a
//     smoke-sized grid for trying the tooling.
//
// instructions sizes the measurement window (0 → the sim default) and
// seeds is the seed sweep (nil → seed 1).
func GridByName(name string, instructions uint64, seeds []uint64) (Grid, error) {
	g := Grid{Name: name, Workloads: sim.Workloads(), Seeds: seeds, Instructions: instructions}
	switch name {
	case "all":
		g.Policies = sim.Policies()
	case "paper":
		g.Policies = []sim.Policy{sim.NonSecure, sim.CleanupSpec, sim.InvisiSpecInitial, sim.InvisiSpecRevised}
	case "headline":
		g.Policies = []sim.Policy{sim.NonSecure, sim.CleanupSpec}
	case "quick":
		g.Workloads = []string{"astar", "gcc", "lbm", "sphinx3"}
		g.Policies = []sim.Policy{sim.NonSecure, sim.CleanupSpec}
	default:
		return Grid{}, fmt.Errorf("campaign: unknown grid %q (valid: %s)", name, strings.Join(GridNames(), " "))
	}
	return g, nil
}

// ParseSeeds parses a seed-sweep flag: either a comma list ("1,7,42") or
// an inclusive range ("1..5"). A repeated seed in the list is kept once,
// at its first place, so it cannot become a second job.
func ParseSeeds(s string) ([]uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if lo, hi, ok := strings.Cut(s, ".."); ok {
		a, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || a == 0 || b < a {
			return nil, fmt.Errorf("campaign: bad seed range %q (want e.g. 1..5)", s)
		}
		if b-a >= 1000 {
			return nil, fmt.Errorf("campaign: seed range %q too large (max 1000 seeds)", s)
		}
		// Loop over a count: when b is the largest uint64, v <= b holds
		// for every v.
		var seeds []uint64
		for i := uint64(0); i <= b-a; i++ {
			seeds = append(seeds, a+i)
		}
		return seeds, nil
	}
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("campaign: bad seed %q in %q", part, s)
		}
		if !slices.Contains(seeds, v) {
			seeds = append(seeds, v)
		}
	}
	return seeds, nil
}

// ParseList splits a comma-separated flag value, trimming blanks. A
// repeated value is kept once, at its first place, so it cannot become a
// second job.
func ParseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" && !slices.Contains(out, part) {
			out = append(out, part)
		}
	}
	return out
}

// ParsePolicies parses a comma-separated policy flag, rejecting any name
// that is not one of sim.Policies.
func ParsePolicies(s string) ([]sim.Policy, error) {
	known := make(map[sim.Policy]bool)
	var valid []string
	for _, p := range sim.Policies() {
		known[p] = true
		valid = append(valid, string(p))
	}
	var out []sim.Policy
	for _, name := range ParseList(s) {
		p := sim.Policy(name)
		if !known[p] {
			return nil, fmt.Errorf("unknown policy %q (valid: %s)", p, strings.Join(valid, " "))
		}
		out = append(out, p)
	}
	return out, nil
}

// baselineCycles maps (workload, seed) → non-secure cycles, used to
// normalize every secure policy against its exact baseline cell.
func baselineCycles(results []JobResult) map[string]float64 {
	base := make(map[string]float64)
	for _, r := range results {
		if r.Failed() {
			continue
		}
		rc := r.Job.Config.Resolved()
		if rc.Policy == sim.NonSecure {
			k := fmt.Sprintf("%s/%d", r.Job.Workload, rc.Seed)
			base[k] = float64(r.Result.Cycles)
		}
	}
	return base
}
