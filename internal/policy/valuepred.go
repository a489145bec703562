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

	// inflight holds the validations whose access is in flight, indexed
	// by the access's Txn tag; a free slot has a nil e.
	inflight []validation
	// onValidated is validated bound once, the completion callback of
	// every validation access.
	onValidated func(*memsys.Txn)

	Stats ValuePredStats
}

// validation is one value-predicted load whose real access is in flight.
type validation struct {
	m *cpu.Machine
	e *cpu.LQEntry
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
	v := &ValuePredict{table: make(map[arch.Addr]uint64)}
	v.onValidated = v.validated
	return v
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

// OnLoadNearCommit implements cpu.NearCommitter: launch the real
// (validation) access for a value-predicted load as it nears retirement.
func (v *ValuePredict) OnLoadNearCommit(m *cpu.Machine, e *cpu.LQEntry) {
	v.launchValidation(m, e)
}

func (v *ValuePredict) launchValidation(m *cpu.Machine, e *cpu.LQEntry) {
	if !e.ValuePredicted || e.UpdateLaunched {
		return
	}
	tag := 0
	for tag < len(v.inflight) && v.inflight[tag].e != nil {
		tag++
	}
	if tag == len(v.inflight) {
		v.inflight = append(v.inflight, validation{})
	}
	iss, ok := m.Hierarchy().Load(m.CoreID(), e.Line, m.Now(), validationWaiter(e.Seq),
		memsys.LoadOpts{Owner: m.ThreadID()}, v.onValidated, int32(tag))
	if !ok {
		return // MSHR full: retry from CommitWait
	}
	v.inflight[tag] = validation{m: m, e: e}
	e.UpdateLaunched = true
	e.UpdateDoneAt = iss.DoneAt
	v.Stats.Validations++
}

// validationWaiter is the MSHR waiter id of the validation access for the
// load with sequence number seq. A distinct waiter tag (thread field 63)
// keeps validation requests from colliding with the machine's own waiter
// ids in the MSHR.
func validationWaiter(seq uint64) uint64 { return seq<<6 | 63 }

// validated is the completion callback of a validation access; t.Tag names
// its slot in inflight. A load squashed while its validation was in flight
// has left its LQ entry, or the entry holds a younger load by now, so the
// result is ignored.
func (v *ValuePredict) validated(t *memsys.Txn) {
	p := v.inflight[t.Tag]
	v.inflight[t.Tag] = validation{}
	m, e := p.m, p.e
	if !e.ValuePredicted || validationWaiter(e.Seq) != t.Seq {
		return
	}
	actual := m.Memory().Read64(e.Addr)
	if actual == e.Value {
		v.Stats.Correct++
		e.ValuePredicted = false
		return
	}
	v.Stats.Mispredicts++
	m.RepairValueMisprediction(e, actual)
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
