package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/trace"
)

// LoadDump reads a quarantine diagnostic dump written by the engine. The
// dump is validated just enough to replay: it must name a job and carry
// the panic it documents.
func LoadDump(path string) (*QuarantineDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: reading quarantine dump: %w", err)
	}
	var d QuarantineDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("campaign: parsing quarantine dump %s: %w", path, err)
	}
	if d.Job.Workload == "" {
		return nil, fmt.Errorf("campaign: quarantine dump %s names no job", path)
	}
	return &d, nil
}

// ReplayDepth is the default full-depth trace capacity for Replay — wide
// enough to hold every event of a quarantine-sized cell, against the
// 256-event ring the original run kept.
const ReplayDepth = 1 << 16

// ReplayReport is the outcome of re-running a quarantined cell under a
// full-depth tracer.
type ReplayReport struct {
	Dump *QuarantineDump
	// Result is the replay's outcome: a reproduced panic comes back
	// quarantined again (with a fresh stack), a fixed engine comes back
	// clean.
	Result JobResult
	// Events is the replay's full-depth trace — for simulation cells, the
	// complete event history up to the panic (or completion), not just
	// the 256-event tail the dump carried.
	Events []trace.Event
	// Dropped counts events the replay ring still had to discard (the
	// cell out-ran even the full-depth capacity).
	Dropped uint64
	// Reproduced reports whether the replay panicked again.
	Reproduced bool
}

// Replay re-runs a quarantined job on eng with a full-depth trace ring
// attached, so a panic that a campaign quarantine captured with only a
// 256-event tail is diagnosable offline with the whole history. The
// engine should be memory-only (NewEngine with no Cache): replay must
// actually re-execute, not serve a cached result.
//
// Custom cell kinds replay too (their executor must be registered on
// eng); the full-depth ring only captures simulator events for kinds
// that route Config.Trace into a simulation.
func Replay(eng *Engine, dump *QuarantineDump, depth int) (*ReplayReport, error) {
	if depth <= 0 {
		depth = ReplayDepth
	}
	job := dump.Job
	ring := trace.NewRing(depth)
	job.Config.Trace = ring
	r := eng.RunJob(job)
	rep := &ReplayReport{
		Dump:       dump,
		Result:     r,
		Events:     ring.Events(),
		Reproduced: r.Quarantined,
	}
	if total := ring.Total(); total > uint64(len(rep.Events)) {
		rep.Dropped = total - uint64(len(rep.Events))
	}
	if r.Err != nil && !r.Quarantined {
		var pe *PanicError
		if errors.As(r.Err, &pe) {
			rep.Reproduced = true
		}
	}
	return rep, nil
}
