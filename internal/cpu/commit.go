package cpu

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/trace"
)

// scheduleWake arranges for a deferred-wakeup load's dependents to be woken
// at cycle at (InvisiSpec-Initial's visibility point).
func (m *Machine) scheduleWake(slot int32, at arch.Cycle) {
	e := &m.rob[slot]
	m.wakeQ.Push(at, e.seq, slot)
}

// processWakes delivers deferred wakeups due this cycle.
func (m *Machine) processWakes() {
	for m.wakeQ.Due(m.now) {
		ev := m.wakeQ.Pop()
		if !m.live(ev.Val, ev.Seq) {
			continue
		}
		e := &m.rob[ev.Val]
		if e.wakeDeferred && e.state == stDone {
			e.wakeDeferred = false
			m.wakeConsumers(ev.Val)
		}
	}
}

// commitWindow is how many oldest ROB entries OnLoadNearCommit scans.
const commitWindow = 8

// commit retires up to CommitWidth completed instructions in program order.
func (m *Machine) commit() {
	// Injected commit stall (fault-injection harness): retirement freezes
	// from stallFrom on so the forward-progress watchdog has a
	// deterministic livelock to detect. stallFrom is 0 in real runs.
	if m.stallFrom != 0 && m.now >= m.stallFrom {
		return
	}
	// Give the policy a look at completed loads nearing retirement so it
	// can pipeline commit-time work (InvisiSpec updates/validations).
	// The scan stops at the first incomplete entry: everything before it
	// is unsquashable (no unresolved branch, store address, or load can
	// precede it), so commit-time side effects are safe to start.
	for n, slot := 0, m.robHead; n < commitWindow && n < int(m.robCount); n, slot = n+1, ringNext(slot, int32(m.cfg.ROBSize)) {
		e := &m.rob[slot]
		if !e.valid || e.state != stDone {
			break
		}
		if e.inst.Op == isa.OpLoad {
			lq := &m.lq[e.lqIdx]
			if !lq.UpdateLaunched {
				m.pol.OnLoadNearCommit(m, lq)
			}
		}
	}
	for n := 0; n < m.cfg.CommitWidth && m.robCount > 0; n++ {
		slot := m.robHead
		e := &m.rob[slot]
		if e.state != stDone {
			return
		}

		if e.inst.Op == isa.OpLoad {
			lq := &m.lq[e.lqIdx]
			// Reaching the head makes the load unsquashable even if
			// resolution-order bookkeeping missed it.
			if !lq.Visible {
				lq.Visible = true
				m.pol.OnLoadUnsquashable(m, lq)
			}
			if w := m.pol.CommitWait(m, lq); w > 0 {
				return // head stalls (e.g. InvisiSpec validation)
			}
			if e.wakeDeferred {
				e.wakeDeferred = false
				m.wakeConsumers(slot)
			}
			m.pol.OnLoadCommitted(m, lq)
			if lq.SEFE.L1Fill || lq.SEFE.L2Fill {
				// The install is architecturally justified now;
				// window-tracking marks are released (Section 3.6).
				m.hier.ClearSpecMark(m.cfg.CoreID, lq.Line)
				//simlint:allow cyclemath -- IssuedAt was recorded from m.now when the load issued; commit observes a later cycle
				window := uint64(m.now - lq.IssuedAt)
				if m.hists.exposedWindow != nil {
					m.hists.exposedWindow.Observe(window)
				}
				m.emit(trace.KindSpecWindow, lq.Seq, lq.PC, lq.Line, window)
			}
			m.freeLQHead(e.lqIdx)
			m.Stats.LoadsCommitted++
		}

		switch e.inst.Op {
		case isa.OpStore:
			sq := &m.sq[e.sqIdx]
			// Committed stores drain immediately: functional write
			// plus a non-speculative RFO (Section 4a).
			m.mem.Write64(sq.addr&^7, sq.value)
			m.hier.StoreOwned(m.cfg.CoreID, m.cfg.ThreadID, sq.addr.Line(), m.now)
			m.freeSQHead(e.sqIdx)
			m.Stats.StoresCommitted++
		case isa.OpCLFlush:
			// clflush executes at commit: under every policy it is
			// ordered behind older stores, and CleanupSpec
			// additionally requires it to be unsquashable
			// (Section 3.5, Table 2).
			m.hier.Flush(m.cfg.CoreID, arch.Addr(e.result).Line())
		case isa.OpBranch, isa.OpRet:
			m.Stats.BranchesCommitted++
			if e.mispredicted {
				m.Stats.MispredictsCommitted++
			}
		default:
			// Other ops have no commit-time side effects beyond the
			// bookkeeping above.
		case isa.OpFence:
			m.fenceSeqs = removeSeq(m.fenceSeqs, e.seq)
		case isa.OpHalt:
			m.halted = true
			m.emit(trace.KindHalt, e.seq, e.pc, 0, 0)
		}

		if e.hasRd {
			rd := destReg(e.inst)
			m.regs[rd] = e.result
			if m.rat[rd] == slot {
				m.rat[rd] = -1
			}
		}

		m.emit(trace.KindCommit, e.seq, e.pc, 0, 0)
		e.valid = false
		m.robHead = ringNext(m.robHead, int32(m.cfg.ROBSize))
		m.robCount--
		m.Stats.Committed++
		m.lastCommitCycle = m.now
		if m.halted {
			return
		}
	}
}

func (m *Machine) freeLQHead(idx int32) {
	if idx != m.lqHead {
		//simlint:allow errdiscipline,hotalloc -- pipeline invariant: an out-of-order queue free means corrupt ROB state; the Sprintf runs only on that terminal panic path
		panic(fmt.Sprintf("cpu: committing load at LQ %d but head is %d", idx, m.lqHead))
	}
	m.lq[idx].valid = false
	m.lqHead = ringNext(m.lqHead, int32(m.cfg.LQSize))
	m.lqCount--
}

func (m *Machine) freeSQHead(idx int32) {
	if idx != m.sqHead {
		//simlint:allow errdiscipline,hotalloc -- pipeline invariant: an out-of-order queue free means corrupt ROB state; the Sprintf runs only on that terminal panic path
		panic(fmt.Sprintf("cpu: committing store at SQ %d but head is %d", idx, m.sqHead))
	}
	m.sq[idx].valid = false
	m.sqHead = ringNext(m.sqHead, int32(m.cfg.SQSize))
	m.sqCount--
}

// Reg returns the committed architectural value of register r (tests and
// attack harnesses read results through this).
func (m *Machine) Reg(r isa.Reg) uint64 { return m.regs[r] }

// ScheduleLoadWake lets a policy schedule the deferred wakeup of a load's
// dependents at cycle at (InvisiSpec-Initial's visibility point).
func (m *Machine) ScheduleLoadWake(e *LQEntry, at arch.Cycle) {
	m.scheduleWake(e.slot, at)
}
