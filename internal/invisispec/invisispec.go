// Package invisispec implements the Redo baseline the paper compares
// against: InvisiSpec (Yan et al., MICRO 2018) in its "Futuristic" variant,
// which treats every load as unsafe until it can no longer be squashed by
// any cause — i.e. until it reaches the head of the ROB. This matches the
// threat model the paper evaluates under (Section 5.1, InvisiSpec-Future).
//
// A speculative load is issued *invisibly*: it returns data without
// changing any cache state. When the load reaches the ROB head it performs
// the second, "update" access, writing the buffered data into the caches
// and checking memory consistency with the L2/directory. Loads whose
// invisible access was served beyond the L1 need a blocking *validation*
// (retirement waits for the round trip, "on the critical path before
// load-retirement", Section 2.3.1); invisible L1 hits were already
// coherence-tracked locally and retire with a fire-and-forget *exposure*.
//
// Two modes reproduce the paper's Section 6.5 discussion:
//
//   - Initial: the data propagates to dependent instructions only at the
//     load's visibility point (the simulation behavior behind the paper's
//     initial 67.5% estimate).
//   - Revised: the data propagates to dependents as soon as the invisible
//     load returns it (the authors' corrected implementation, ~15%).
package invisispec

import (
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/memsys"
)

// Mode selects the Initial or Revised modeling choice.
type Mode int

// Modes.
const (
	Initial Mode = iota
	Revised
)

func (m Mode) String() string {
	if m == Initial {
		return "invisispec-initial"
	}
	return "invisispec-revised"
}

// Stats counts InvisiSpec-specific work.
type Stats struct {
	InvisibleLoads uint64
	Updates        uint64
	Validations    uint64 // blocking updates (invisible access went past L1)
	Exposures      uint64 // non-blocking updates (invisible L1 hits)
}

// Policy is the Redo baseline (implements cpu.Policy). Nothing happens
// when a load becomes unsquashable: under the Futuristic threat model the
// visibility point is the ROB head, so the update is launched from
// OnLoadNearCommit. A squash has nothing to clean or drop: invisible loads
// left no trace and never fill, so it costs nothing beyond the pipeline
// refill.
type Policy struct {
	cpu.NoHooks
	mode Mode

	Stats Stats
}

// New returns an InvisiSpec policy in the given mode.
func New(mode Mode) *Policy { return &Policy{mode: mode} }

// Name implements cpu.Policy.
func (p *Policy) Name() string { return p.mode.String() }

// Mode implements cpu.Policy: speculative loads are invisible.
func (p *Policy) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	if spec {
		return cpu.LoadInvisible
	}
	return cpu.LoadNormal
}

// DeferWakeupUntilVisible implements cpu.Policy: the Initial/Revised split.
func (p *Policy) DeferWakeupUntilVisible() bool { return p.mode == Initial }

// OnLoadNearCommit implements cpu.Policy: as the load enters the commit
// window it launches its update, so back-to-back validations overlap the
// way gem5's commit pipeline overlaps them.
func (p *Policy) OnLoadNearCommit(m *cpu.Machine, e *cpu.LQEntry) {
	if e.IssuedMode != cpu.LoadInvisible || e.Forwarded || !e.Issued || e.UpdateLaunched {
		return
	}
	now := m.Now()
	e.UpdateLaunched = true
	p.Stats.Updates++
	lat := m.Hierarchy().CommitUpdate(m.CoreID(), e.Line, now)
	if e.Level == memsys.LevelL1 {
		// Exposure: fire and forget; retirement proceeds.
		p.Stats.Exposures++
		e.UpdateDoneAt = now
	} else {
		// Validation: the line was invisibly fetched past the L1, so
		// consistency must be re-checked before the load may retire
		// ("on the critical path before load-retirement",
		// Section 2.3.1).
		p.Stats.Validations++
		e.UpdateDoneAt = now + lat
	}
	if p.mode == Initial {
		// Dependents see the value only at the visibility point.
		m.ScheduleLoadWake(e, e.UpdateDoneAt)
	}
}

// CommitWait implements cpu.Policy: hold retirement for an unfinished
// validation.
func (p *Policy) CommitWait(m *cpu.Machine, e *cpu.LQEntry) arch.Cycle {
	if !e.UpdateLaunched {
		// The load reached the head before the window scan saw it.
		p.OnLoadNearCommit(m, e)
	}
	if e.UpdateDoneAt > m.Now() {
		return e.UpdateDoneAt - m.Now()
	}
	return 0
}

// OnLoadCommitted implements cpu.Policy.
func (p *Policy) OnLoadCommitted(m *cpu.Machine, e *cpu.LQEntry) {
	if e.IssuedMode == cpu.LoadInvisible {
		p.Stats.InvisibleLoads++
	}
}
