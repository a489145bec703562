package specfuzz

import (
	"fmt"

	"repro/internal/campaign"
	"repro/sim"
)

// Options parameterizes one fuzzing campaign.
type Options struct {
	// Seed drives gadget generation and is also the hierarchy seed of
	// every oracle run, so a (Seed, Count, Policies) triple names the
	// campaign's entire cell grid.
	Seed uint64
	// Count is how many gadgets to generate (at least 1).
	Count int
	// Policies are the defenses under test, in report order. Empty means
	// every policy the simulator knows.
	Policies []sim.Policy
}

// GadgetReport pairs one gadget with its verdicts, in Options.Policies
// order (nil where that cell failed).
type GadgetReport struct {
	Spec     GadgetSpec `json:"spec"`
	Verdicts []*Verdict `json:"verdicts"`
}

// Effective reports whether the gadget leaks on the unprotected baseline —
// a gadget that does not even beat "no defense" makes no statement about
// any defense.
func (g GadgetReport) Effective(policies []sim.Policy) bool {
	for i, p := range policies {
		if p == sim.NonSecure && i < len(g.Verdicts) && g.Verdicts[i] != nil {
			return g.Verdicts[i].Leak
		}
	}
	return false
}

// PolicySummary aggregates one policy's column of the campaign.
type PolicySummary struct {
	Policy string `json:"policy"`
	// Gadgets is how many cells completed for this policy.
	Gadgets int `json:"gadgets"`
	// Leaks is how many of them leaked (for the unprotected baseline
	// this is the count of effective gadgets; for a defense it is the
	// count of survivors).
	Leaks int `json:"leaks"`
	// TimingLeaks/StateLeaks split Leaks by channel (a leak can be
	// both).
	TimingLeaks int `json:"timing_leaks"`
	StateLeaks  int `json:"state_leaks"`
}

// Report is the full outcome of a fuzzing campaign.
type Report struct {
	Seed     uint64   `json:"seed"`
	Count    int      `json:"count"`
	Policies []string `json:"policies"`

	Gadgets []GadgetReport  `json:"gadgets"`
	Summary []PolicySummary `json:"summary"`

	// Failures lists cells that errored, as "gadget/policy: error".
	Failures []string `json:"failures,omitempty"`
	// CacheHits counts cells served from the campaign cache.
	CacheHits int `json:"cache_hits"`

	// Coverage maps each policy to the gadget-space cells (window ×
	// pattern × receiver × flush) this campaign explored; see Coverage.
	Coverage Coverage `json:"coverage,omitempty"`
}

// Survivors returns the (gadget, policy) pairs where a leak survived an
// actual defense: the campaign's findings. Baseline leaks are expected —
// they establish gadget efficacy, not defense failure.
func (r Report) Survivors() []Verdict {
	var out []Verdict
	for _, g := range r.Gadgets {
		for _, v := range g.Verdicts {
			if v != nil && v.Leak && v.Policy != string(sim.NonSecure) {
				out = append(out, *v)
			}
		}
	}
	return out
}

// Jobs expands (specs × policies) into the campaign cell grid, in
// deterministic (gadget-major, policy-minor) order.
func Jobs(specs []GadgetSpec, policies []sim.Policy, seed uint64) ([]campaign.Job, error) {
	jobs := make([]campaign.Job, 0, len(specs)*len(policies))
	for _, s := range specs {
		for _, p := range policies {
			j, err := NewJob(s, p, seed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// Run executes a fuzzing campaign on the given engine: generate the
// gadgets, expand the cell grid, run it on the worker pool (memoized,
// cached, resumable), and fold the verdicts into a report. The engine may
// carry a cache and a reporter exactly like a simulation campaign;
// Register is called here, so callers only wire the engine.
func Run(e *campaign.Engine, opts Options) (Report, error) {
	if opts.Count < 1 {
		return Report{}, fmt.Errorf("specfuzz: %d gadgets, want at least 1", opts.Count)
	}
	if len(opts.Policies) == 0 {
		opts.Policies = sim.Policies()
	}
	Register(e)

	specs := Generate(opts.Seed, opts.Count)
	jobs, err := Jobs(specs, opts.Policies, opts.Seed)
	if err != nil {
		return Report{}, err
	}
	results := e.Run(jobs)

	rep := Report{Seed: opts.Seed, Count: opts.Count}
	for _, p := range opts.Policies {
		rep.Policies = append(rep.Policies, string(p))
	}
	summary := make([]PolicySummary, len(opts.Policies))
	for i, p := range opts.Policies {
		summary[i].Policy = string(p)
	}

	for gi, s := range specs {
		gr := GadgetReport{Spec: s, Verdicts: make([]*Verdict, len(opts.Policies))}
		for pi := range opts.Policies {
			jr := results[gi*len(opts.Policies)+pi]
			if jr.Cached {
				rep.CacheHits++
			}
			if jr.Err != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", jr.Job, jr.Err))
				continue
			}
			v, derr := DecodeVerdict(jr.Aux)
			if derr != nil {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", jr.Job, derr))
				continue
			}
			gr.Verdicts[pi] = &v
			summary[pi].Gadgets++
			if v.Leak {
				summary[pi].Leaks++
			}
			for _, ch := range v.Channels {
				switch ch {
				case "timing":
					summary[pi].TimingLeaks++
				case "state":
					summary[pi].StateLeaks++
				default:
					// Unknown channel names pass through uncounted.
				}
			}
		}
		rep.Gadgets = append(rep.Gadgets, gr)
	}
	rep.Summary = summary
	rep.Coverage = CoverageFromReport(rep)
	return rep, nil
}
