package policy

import (
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/memsys"
)

// ValuePredict is the "delay and value-predict" mitigation of Sakalis et
// al. (ISCA 2019), the related-work baseline the paper cites at ~10%
// slowdown (Section 7.3.2): speculative L1 misses never access the cache;
// dependents continue on a last-value prediction, the real access runs once
// the load is unsquashable, and a wrong prediction squashes and re-executes
// the dependents. Speculative L1 hits proceed normally (the delay-on-miss
// filter). A squash has nothing to clean: delayed loads never touched the
// cache.
type ValuePredict struct {
	cpu.NoHooks
	table map[arch.Addr]uint64 // last committed value per load PC

	Stats ValuePredStats
}

// ValuePredStats counts prediction activity.
type ValuePredStats struct {
	Predictions uint64
	Validations uint64
	Correct     uint64
	Mispredicts uint64
}

// NewValuePredict creates the policy with an empty last-value table.
func NewValuePredict() *ValuePredict {
	return &ValuePredict{table: make(map[arch.Addr]uint64)}
}

// Name implements cpu.Policy.
func (v *ValuePredict) Name() string { return "value-predict" }

// Mode implements cpu.Policy.
func (v *ValuePredict) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	if spec {
		return cpu.LoadValuePredict
	}
	return cpu.LoadNormal
}

// PredictValue implements cpu.ValuePredictor: last value seen at this PC.
func (v *ValuePredict) PredictValue(m *cpu.Machine, e *cpu.LQEntry) uint64 {
	v.Stats.Predictions++
	return v.table[e.PC]
}

// OnLoadNearCommit implements cpu.Policy: launch the real (validation)
// access for a value-predicted load as it nears retirement.
func (v *ValuePredict) OnLoadNearCommit(m *cpu.Machine, e *cpu.LQEntry) {
	v.launchValidation(m, e)
}

func (v *ValuePredict) launchValidation(m *cpu.Machine, e *cpu.LQEntry) {
	if !e.ValuePredicted || e.UpdateLaunched {
		return
	}
	e.UpdateLaunched = true
	v.Stats.Validations++
	seq := e.Seq
	// A distinct waiter tag (thread field 63) keeps validation requests
	// from colliding with the machine's own waiter ids in the MSHR.
	waiter := seq<<6 | 63
	iss, ok := m.Hierarchy().Load(m.CoreID(), e.Line, m.Now(), waiter,
		//simlint:allow hotalloc -- one validation closure per value-predicted load nearing commit; bounded by mispredicted-miss events, not cycles
		memsys.LoadOpts{Owner: m.ThreadID()}, func(t *memsys.Txn) {
			if !e.ValuePredicted || e.Seq != seq {
				return // the load itself was squashed meanwhile
			}
			actual := m.Memory().Read64(e.Addr)
			if actual == e.Value {
				v.Stats.Correct++
				e.ValuePredicted = false
				return
			}
			v.Stats.Mispredicts++
			m.RepairValueMisprediction(e, actual)
		}, 0)
	if !ok {
		// MSHR full: retry from CommitWait.
		e.UpdateLaunched = false
		v.Stats.Validations--
		return
	}
	e.UpdateDoneAt = iss.DoneAt
}

// CommitWait implements cpu.Policy: a value-predicted load may not retire
// until its validation completes.
func (v *ValuePredict) CommitWait(m *cpu.Machine, e *cpu.LQEntry) arch.Cycle {
	if e.ValuePredicted && !e.UpdateLaunched {
		v.launchValidation(m, e)
		if !e.UpdateLaunched {
			return 1 // MSHR full; retry next cycle
		}
	}
	if e.UpdateLaunched && e.UpdateDoneAt > m.Now() {
		return e.UpdateDoneAt - m.Now()
	}
	return 0
}

// OnLoadCommitted implements cpu.Policy: train the last-value table.
func (v *ValuePredict) OnLoadCommitted(m *cpu.Machine, e *cpu.LQEntry) {
	v.table[e.PC] = e.Value
}
