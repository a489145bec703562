package specfuzz

import (
	"encoding/json"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/sim"
)

// Kind is the campaign cell kind for differential-pair fuzz cells. One
// cell is one (gadget, policy) oracle invocation: Job.Workload carries the
// gadget ID (so manifest rows read like "g0042/cleanupspec"), Job.Config
// carries the policy under test and the hierarchy seed, and Job.Cell
// carries the full gadget spec — all three feed the content-addressed
// cache key, so any change to the gadget or the configuration is a new
// cell and an unchanged one replays from the cache.
const Kind = campaign.CellKind("specfuzz")

// CellPayload is the Job.Cell JSON for a fuzz cell.
type CellPayload struct {
	Spec GadgetSpec `json:"spec"`
}

// NewJob builds the campaign job for one (gadget, policy) cell.
func NewJob(spec GadgetSpec, policy sim.Policy, seed uint64) (campaign.Job, error) {
	if err := spec.Validate(); err != nil {
		return campaign.Job{}, err
	}
	cell, err := json.Marshal(CellPayload{Spec: spec})
	if err != nil {
		return campaign.Job{}, fmt.Errorf("specfuzz: encoding cell for %s: %w", spec.ID, err)
	}
	return campaign.Job{
		Kind:     Kind,
		Workload: spec.ID,
		Config:   sim.Config{Policy: policy, Seed: seed},
		Cell:     cell,
	}, nil
}

// Register installs the fuzz-cell executor on a campaign engine. The
// executor reads e.Trace at call time, so oracle phases land in the same
// span sink as the engine's own stage spans when tracing is on.
func Register(e *campaign.Engine) {
	e.RegisterCell(Kind, func(job campaign.Job) (sim.Result, json.RawMessage, error) {
		return runCell(job, e.Trace)
	})
}

// runCell is the CellFunc for Kind: it decodes the gadget spec, runs the
// differential pair under the job's policy, and returns the verdict as the
// cell's Aux payload. The sim.Result half carries just enough identity for
// the shared reporting surfaces (manifest rows, status tables).
func runCell(job campaign.Job, tr *obs.Tracer) (sim.Result, json.RawMessage, error) {
	var payload CellPayload
	if err := json.Unmarshal(job.Cell, &payload); err != nil {
		return sim.Result{}, nil, fmt.Errorf("specfuzz: decoding cell payload for %s: %w", job.Workload, err)
	}
	if payload.Spec.ID != job.Workload {
		return sim.Result{}, nil, fmt.Errorf("specfuzz: cell payload names gadget %q but job names %q", payload.Spec.ID, job.Workload)
	}
	v, err := RunPairTraced(payload.Spec, job.Config, tr)
	if err != nil {
		return sim.Result{}, nil, err
	}
	aux, err := json.Marshal(v)
	if err != nil {
		return sim.Result{}, nil, fmt.Errorf("specfuzz: encoding verdict for %s: %w", job.Workload, err)
	}
	res := sim.Result{Workload: job.Workload, Policy: job.Config.Policy}
	return res, aux, nil
}

// DecodeVerdict unpacks a fuzz cell's Aux payload.
func DecodeVerdict(aux json.RawMessage) (Verdict, error) {
	var v Verdict
	if len(aux) == 0 {
		return v, fmt.Errorf("specfuzz: cell result has no verdict payload")
	}
	if err := json.Unmarshal(aux, &v); err != nil {
		return v, fmt.Errorf("specfuzz: decoding verdict: %w", err)
	}
	return v, nil
}
