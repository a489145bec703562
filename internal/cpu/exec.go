package cpu

import (
	"repro/internal/arch"
	"repro/internal/heapq"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/trace"
)

func (m *Machine) pushReady(slot int32, seq uint64) {
	m.readyQ.Push(0, seq, slot)
}

func (m *Machine) scheduleDone(slot int32, at arch.Cycle) {
	e := &m.rob[slot]
	e.doneAt = at
	m.doneQ.Push(at, e.seq, slot)
}

// live reports whether slot still holds the instruction with seq.
func (m *Machine) live(slot int32, seq uint64) bool {
	e := &m.rob[slot]
	return e.valid && e.seq == seq
}

// --- issue/execute ---

// issue begins execution for up to IssueWidth ready instructions.
func (m *Machine) issue() {
	issued := 0
	var defered []heapq.Item[int32]
	for issued < m.cfg.IssueWidth && m.readyQ.Len() > 0 {
		it := m.readyQ.Pop()
		if !m.live(it.Val, it.Seq) {
			continue
		}
		e := &m.rob[it.Val]
		if e.state != stDispatched {
			continue
		}
		if !m.execute(it.Val) {
			// Not executable this cycle (e.g. rdcycle not at head);
			// hold it without consuming issue bandwidth.
			//simlint:allow hotalloc -- allocates only on the rare serializing-op defer (rdcycle not at ROB head), bounded by issue width
			defered = append(defered, it)
			continue
		}
		issued++
	}
	for _, it := range defered {
		m.readyQ.Push(it.At, it.Seq, it.Val)
	}
}

// execute starts one instruction. It returns false if the instruction must
// wait (it stays in the ready queue).
func (m *Machine) execute(slot int32) bool {
	e := &m.rob[slot]
	in := e.inst
	switch in.Op {
	case isa.OpNop, isa.OpHalt, isa.OpJump, isa.OpFence:
		e.state = stIssued
		m.scheduleDone(slot, m.now+1)
	case isa.OpALU:
		e.state = stIssued
		e.result = in.EvalALU(e.src1Val, e.src2Val)
		m.scheduleDone(slot, m.now+in.Alu.Latency())
	case isa.OpCall:
		e.state = stIssued
		e.result = uint64(e.pc + 1) // link value
		m.scheduleDone(slot, m.now+1)
	case isa.OpBranch, isa.OpRet:
		e.state = stIssued
		m.scheduleDone(slot, m.now+1)
	case isa.OpRdCycle:
		// Serializing: executes only as the oldest instruction, like a
		// timer read fenced on both sides (Section 4a's observation
		// that same-thread timing needs serializing instructions).
		if slot != m.robHead {
			return false
		}
		e.state = stIssued
		e.result = uint64(m.now)
		m.scheduleDone(slot, m.now+1)
	case isa.OpCLFlush:
		// Address is computed now; the flush itself applies at commit
		// (it is ordered, Section 3.5 / Table 2).
		e.state = stIssued
		e.result = e.src1Val + uint64(in.Imm)
		m.scheduleDone(slot, m.now+1)
	case isa.OpStore:
		e.state = stIssued
		sq := &m.sq[e.sqIdx]
		sq.addr = arch.Addr(e.src1Val + uint64(in.Imm))
		sq.value = e.src2Val
		sq.addrReady = true
		sq.valueReady = true
		m.scheduleDone(slot, m.now+1)
		m.checkMemOrderViolation(e.sqIdx)
	case isa.OpLoad:
		e.state = stIssued
		lq := &m.lq[e.lqIdx]
		lq.Addr = arch.Addr(e.src1Val + uint64(in.Imm))
		lq.Line = lq.Addr.Line()
		lq.HasAddr = true
		if !m.tryIssueLoad(e.lqIdx) {
			//simlint:allow hotalloc -- retry list is bounded by the LQ size and its capacity is recycled by retryMem's in-place filter
			m.memRetry = append(m.memRetry, e.lqIdx)
		}
	default:
		//simlint:allow errdiscipline,hotalloc -- decode invariant: ops are validated at assembly; this panic path (and its string concat) is unreachable in a correct build
		panic("cpu: unhandled op " + in.Op.String())
	}
	return true
}

// retryMem re-attempts blocked loads.
func (m *Machine) retryMem() {
	if len(m.memRetry) == 0 {
		return
	}
	rest := m.memRetry[:0]
	for _, idx := range m.memRetry {
		lq := &m.lq[idx]
		// A squash may have recycled this LQ slot for a new load whose
		// address is not computed yet; HasAddr filters that out.
		if !lq.valid || !lq.HasAddr || lq.Issued || lq.Completed {
			continue
		}
		if !m.tryIssueLoad(idx) {
			//simlint:allow hotalloc -- in-place filter into m.memRetry[:0]; the result is never longer than the input, so this append cannot grow
			rest = append(rest, idx)
		}
	}
	m.memRetry = rest
}

// olderStoreBlocks scans the store queue for stores older than seq that
// match the load's address. Loads speculate past older stores with
// *unknown* addresses (store-set-free optimistic disambiguation, as real
// cores do); checkMemOrderViolation squashes the rare load that guessed
// wrong. It returns (blocked, forwarded, value).
func (m *Machine) olderStoreBlocks(seq uint64, addr arch.Addr) (bool, bool, uint64) {
	// The youngest older matching store wins forwarding.
	var fwdVal uint64
	fwd := false
	for n, i := int32(0), m.sqHead; n < m.sqCount; n, i = n+1, ringNext(i, int32(m.cfg.SQSize)) {
		sq := &m.sq[i]
		if !sq.valid || sq.seq > seq || !sq.addrReady {
			continue
		}
		if sq.addr&^7 == addr&^7 {
			if !sq.valueReady {
				return true, false, 0
			}
			fwd = true
			fwdVal = sq.value
		}
	}
	return false, fwd, fwdVal
}

// checkMemOrderViolation runs when a store's address resolves: any younger
// load that already issued to the same 8-byte word read stale data and must
// be squashed and re-executed (a memory-order squash).
func (m *Machine) checkMemOrderViolation(sqIdx int32) {
	sq := &m.sq[sqIdx]
	violator := int32(-1)
	var vseq uint64
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, int32(m.cfg.LQSize)) {
		lq := &m.lq[i]
		if !lq.valid || !lq.Issued || !lq.HasAddr || lq.Seq < sq.seq {
			continue
		}
		if lq.Addr&^7 == sq.addr&^7 {
			if violator < 0 || lq.Seq < vseq {
				violator = lq.slot
				vseq = lq.Seq
			}
		}
	}
	if violator >= 0 {
		m.memOrderSquash(violator)
	}
}

// tryIssueLoad attempts to send a load with a resolved address to the
// memory system. It returns false if the load must retry later.
func (m *Machine) tryIssueLoad(idx int32) bool {
	lq := &m.lq[idx]
	// Fences: younger loads may not issue past an uncommitted fence.
	if len(m.fenceSeqs) > 0 && m.fenceSeqs[0] < lq.Seq {
		return false
	}
	blocked, fwd, val := m.olderStoreBlocks(lq.Seq, lq.Addr)
	if blocked {
		return false
	}
	if fwd {
		lq.Issued = true
		lq.Forwarded = true
		lq.Value = val
		lq.IssuedAt = m.now
		m.completeLoad(idx, m.now+1, memsys.LevelL1)
		return true
	}

	spec := m.hasOlderUnresolvedCtrl(lq.Seq)
	mode := m.pol.Mode(m, lq, spec)
	if mode == LoadDelayed && spec {
		m.Stats.LoadDelayStalls++
		return false
	}
	if mode == LoadDelayOnMiss && spec {
		if _, hit := m.hier.L1(m.cfg.CoreID).Probe(lq.Line); !hit {
			m.Stats.LoadDelayStalls++
			return false
		}
	}
	if mode == LoadValuePredict && spec {
		if _, hit := m.hier.L1(m.cfg.CoreID).Probe(lq.Line); !hit {
			// Complete immediately with the predicted value; the real
			// access runs once the load is unsquashable, and a wrong
			// prediction squashes the dependents (RepairValue).
			vp := m.pol.(ValuePredictor)
			lq.Issued = true
			lq.ValuePredicted = true
			lq.IssuedAt = m.now
			lq.IssuedMode = LoadValuePredict
			lq.Value = vp.PredictValue(m, lq)
			m.completeLoad(idx, m.now+1, memsys.LevelMem)
			return true
		}
	}
	if lq.DelayedSafe && spec {
		// A failed GetS-Safe keeps the load waiting until it is
		// unsquashable (Section 3.5).
		m.Stats.LoadDelayStalls++
		return false
	}
	opts := memsys.LoadOpts{
		Spec:  spec,
		Owner: m.cfg.ThreadID,
		Kind:  memsys.KindRegular,
	}
	switch mode {
	case LoadInvisible:
		if spec {
			opts.NoFill = true
			opts.Kind = memsys.KindInvisible
		}
	case LoadNormalSafe:
		if spec {
			opts.SafeGetS = true
		}
	default:
		// Remaining modes issue a plain GetS; delay-based modes were
		// already handled before reaching the issue path.
	}
	iss, ok := m.hier.Load(m.cfg.CoreID, lq.Line, m.now, m.waiterID(lq.Seq), opts, m.onLoad, idx)
	if !ok {
		return false // MSHR full
	}
	if iss.Level == memsys.LevelDelayed {
		lq.DelayedSafe = true
		m.Stats.LoadDelayStalls++
		return false
	}
	lq.Issued = true
	lq.IssuedAt = m.now
	lq.DoneAt = iss.DoneAt
	lq.IssuedMode = mode
	m.emit(trace.KindLoadIssue, lq.Seq, m.rob[lq.slot].pc, lq.Line, uint64(iss.Level))
	if !spec {
		lq.IssuedMode = LoadNormal
	}
	lq.Level = iss.Level // refined at completion; used if squashed in flight
	// The functional value is read at issue, after store-queue
	// disambiguation; older stores drain to memory at commit, so memory
	// already reflects everything older that was not forwarded.
	lq.Value = m.mem.Read64(lq.Addr)
	return true
}

// onLoadData is the memory-system completion callback of every load the
// core issues, bound once in New. t.Tag is the load's LQ index. A load
// squashed while in flight has left that slot, or the slot holds a younger
// load by now (sequence numbers are never reused), so its completion is
// ignored.
func (m *Machine) onLoadData(t *memsys.Txn) {
	idx := t.Tag
	lq := &m.lq[idx]
	if !lq.valid || m.waiterID(lq.Seq) != t.Seq {
		return
	}
	if t.Dropped {
		// Dropped fills belong to squashed loads only: an MSHR entry
		// is squashed only once every load waiting on it was.
		return
	}
	lq.SEFE = t.SEFE
	lq.FillOrder = m.hier.FillOrder(m.cfg.CoreID)
	m.completeLoad(idx, t.DoneAt, t.Level)
}

// completeLoad finishes a load's execution at cycle at.
func (m *Machine) completeLoad(idx int32, at arch.Cycle, level Level) {
	lq := &m.lq[idx]
	//simlint:allow cyclemath -- a completion cycle is scheduled at issue time as IssuedAt plus a non-negative latency
	m.emit(trace.KindLoadComplete, lq.Seq, m.rob[lq.slot].pc, lq.Line, uint64(at-lq.IssuedAt))
	lq.Completed = true
	lq.DoneAt = at
	lq.Level = level
	e := &m.rob[lq.slot]
	e.result = lq.Value
	m.scheduleDone(lq.slot, at)
	// Visibility: the policy hook fires at max(completion, visibility) —
	// a load may have been promoted to visible while still in flight
	// (promoteVisibility skips incomplete loads), or may complete with
	// no older unresolved control flow left.
	if lq.Visible {
		m.pol.OnLoadUnsquashable(m, lq)
	} else if !m.hasOlderUnresolvedCtrl(lq.Seq) {
		lq.Visible = true
		m.pol.OnLoadUnsquashable(m, lq)
	}
}

// --- completion & branch resolution ---

// processCompletions retires execution events due this cycle: it marks
// results ready, wakes dependents, resolves control flow, and triggers
// squashes on mispredicts.
func (m *Machine) processCompletions() {
	for m.doneQ.Due(m.now) {
		ev := m.doneQ.Pop()
		if !m.live(ev.Val, ev.Seq) {
			continue
		}
		e := &m.rob[ev.Val]
		if e.state != stIssued {
			continue
		}
		e.state = stDone

		// InvisiSpec-Initial defers dependent wakeup until the load's
		// visibility point — i.e. until its update/validation access
		// completes (Section 6.5's "incorrectly delayed propagation").
		if e.inst.Op == isa.OpLoad && m.pol.DeferWakeupUntilVisible() {
			lq := &m.lq[e.lqIdx]
			if lq.IssuedMode == LoadInvisible && !lq.Forwarded {
				if !lq.UpdateLaunched || lq.UpdateDoneAt > m.now {
					e.wakeDeferred = true
				}
			}
		}
		if !e.wakeDeferred {
			m.wakeConsumers(ev.Val)
		}

		if e.isCtrl {
			m.resolveCtrl(ev.Val)
			// resolveCtrl may squash, invalidating heap entries;
			// the live() check handles that on later pops.
		}
	}
}

// wakeConsumers delivers a completed result to waiting dependents.
func (m *Machine) wakeConsumers(slot int32) {
	e := &m.rob[slot]
	for _, c := range e.consumers {
		if !m.live(c.slot, c.seq) {
			continue
		}
		ce := &m.rob[c.slot]
		m.setSrc(ce, c.src, e.result)
		ce.pendSrcs--
		if ce.pendSrcs == 0 && ce.state == stDispatched {
			m.pushReady(c.slot, ce.seq)
		}
	}
	e.consumers = e.consumers[:0]
}

// resolveCtrl resolves a branch or return, trains the predictor, and
// squashes on a mispredict.
func (m *Machine) resolveCtrl(slot int32) {
	e := &m.rob[slot]
	m.Stats.BranchesResolved++
	var actualTaken bool
	var actualNext arch.Addr
	switch e.inst.Op {
	case isa.OpBranch:
		actualTaken = e.inst.Cond.Eval(e.src1Val, e.src2Val)
		if actualTaken {
			actualNext = e.inst.Target
		} else {
			actualNext = e.pc + 1
		}
		m.bp.Update(m.robPred[slot].state, actualTaken)
	case isa.OpRet:
		actualNext = arch.Addr(e.src1Val)
		actualTaken = true
	default:
		// resolveCtrl is enqueued only for OpBranch/OpRet (see rename);
		// any other op reaching here is a dispatch bug and would resolve
		// to target 0, forcing a visible squash rather than silent state.
	}
	m.ctrlSeqs = removeSeq(m.ctrlSeqs, e.seq)

	mispredict := actualNext != e.predTarget
	if mispredict {
		e.mispredicted = true
		m.Stats.Mispredicts++
		m.squash(slot, actualTaken, actualNext)
		return
	}
	// Correct resolution can make younger completed loads unsquashable.
	m.promoteVisibility()
}

// promoteVisibility notifies the policy about completed loads that just
// became unsquashable.
func (m *Machine) promoteVisibility() {
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, int32(m.cfg.LQSize)) {
		lq := &m.lq[i]
		if !lq.valid || lq.Visible {
			continue
		}
		if m.hasOlderUnresolvedCtrl(lq.Seq) {
			break // LQ is in program order; all younger still squashable
		}
		lq.Visible = true
		if lq.Completed {
			m.pol.OnLoadUnsquashable(m, lq)
		}
		if lq.DelayedSafe {
			lq.DelayedSafe = false // retry as plain GetS
			if !lq.Issued {
				//simlint:allow hotalloc -- retry list is bounded by the LQ size and its capacity is recycled by retryMem's in-place filter
				m.memRetry = append(m.memRetry, i)
			}
		}
	}
}

// --- squash ---

// squash removes every instruction younger than the mispredicted branch at
// brSlot, restores the RAT and predictor state, redirects fetch, and
// invokes the policy's cleanup.
func (m *Machine) squash(brSlot int32, actualTaken bool, actualNext arch.Addr) {
	br := &m.rob[brSlot]
	m.Stats.Squashes++

	// Predictor recovery: rewind to the checkpoint taken at this branch,
	// then apply the actual outcome to the history.
	m.bp.Restore(m.robPred[brSlot].snapshot)
	if br.inst.Op == isa.OpBranch {
		m.bp.ShiftGHR(actualTaken)
	}

	m.emit(trace.KindSquash, br.seq, br.pc, 0, 0)
	m.doSquash(br.seq+1, brSlot, actualNext)
}

// memOrderSquash removes the violating load at vSlot and everything
// younger, re-fetching from the load's own PC. The branch predictor is not
// checkpointed at loads, so speculative history from the squashed region is
// left in place (a small, realistic pollution).
func (m *Machine) memOrderSquash(vSlot int32) {
	v := &m.rob[vSlot]
	m.Stats.Squashes++
	m.Stats.MemOrderSquashes++
	stop := ringPrev(vSlot, int32(m.cfg.ROBSize))
	m.emit(trace.KindMemOrderSquash, v.seq, v.pc, 0, 0)
	m.doSquash(v.seq, stop, v.pc)
}

// doSquash is the shared rollback: every instruction with seq >= cutoff is
// removed (the ROB walk stops at stopSlot, exclusive), squashed loads are
// handed to the policy, and fetch restarts at redirectPC after the redirect
// penalty plus the policy's cleanup stall.
func (m *Machine) doSquash(cutoff uint64, stopSlot int32, redirectPC arch.Addr) {
	// Collect squashed loads in program order first (oldest to youngest).
	squashedLoads := m.squashBuf[:0]
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, int32(m.cfg.LQSize)) {
		lq := &m.lq[i]
		if !lq.valid || lq.Seq < cutoff {
			continue
		}
		sl := SquashedLoad{
			Seq: lq.Seq, Line: lq.Line, HasAddr: lq.HasAddr,
			Issued: lq.Issued, Forwarded: lq.Forwarded,
			Completed: lq.Completed, Level: lq.Level,
			SEFE: lq.SEFE, FillOrder: lq.FillOrder,
			Inflight: lq.Issued && !lq.Completed && !lq.Forwarded,
		}
		//simlint:allow hotalloc -- per-squash worklist bounded by the LQ size; its capacity is kept in m.squashBuf and reused by later squashes
		squashedLoads = append(squashedLoads, sl)
		if lq.Issued && !lq.Forwarded && m.hists.loadToSquash != nil {
			//simlint:allow cyclemath -- IssuedAt was recorded from m.now when the load issued; the squash observes a later cycle
			m.hists.loadToSquash.Observe(uint64(m.now - lq.IssuedAt))
		}
		if sl.Completed && (sl.SEFE.L1Fill || sl.SEFE.L2Fill) {
			// The speculative install's exposure window closes here: the
			// squash hands it to the policy's cleanup.
			//simlint:allow cyclemath -- IssuedAt was recorded from m.now when the load issued; the squash observes a later cycle
			window := uint64(m.now - lq.IssuedAt)
			if m.hists.exposedWindow != nil {
				m.hists.exposedWindow.Observe(window)
			}
			m.emit(trace.KindSpecWindow, lq.Seq, lq.PC, lq.Line, window)
		}
		// An in-flight load's completion still arrives but finds its LQ
		// slot gone (onLoadData); the policy decides whether the fill
		// itself lands.
		if sl.Inflight && m.pol.DropSquashedInflight() {
			m.hier.SquashLoad(m.cfg.CoreID, lq.Line, m.waiterID(lq.Seq))
			m.emit(trace.KindLoadDropped, lq.Seq, 0, lq.Line, 0)
		}
	}
	m.squashBuf = squashedLoads

	// Walk the ROB tail back to the stop slot, undoing renames youngest
	// first so oldRat restoration is exact.
	for m.robCount > 0 {
		last := ringPrev(m.robTail, int32(m.cfg.ROBSize))
		if last == stopSlot {
			break
		}
		e := &m.rob[last]
		m.Stats.SquashedInsts++
		if e.hasRd {
			rd := destReg(e.inst)
			if m.rat[rd] == last {
				// Restore the previous mapping — unless that
				// producer has committed since (its slot may even
				// have been recycled), in which case the value
				// lives in the architectural register file.
				if e.oldRat >= 0 && m.live(e.oldRat, e.oldRatSeq) {
					m.rat[rd] = e.oldRat
				} else {
					m.rat[rd] = -1
				}
			}
		}
		if e.lqIdx >= 0 {
			m.lq[e.lqIdx].valid = false
			m.lqTail = e.lqIdx
			m.lqCount--
			m.Stats.SquashedLoads++
		}
		if e.sqIdx >= 0 {
			m.sq[e.sqIdx].valid = false
			m.sqTail = e.sqIdx
			m.sqCount--
		}
		e.valid = false
		m.robTail = last
		m.robCount--
	}

	// Bookkeeping lists: drop everything at or above the cutoff.
	m.fenceSeqs = truncSeqsAbove(m.fenceSeqs, cutoff-1)
	m.ctrlSeqs = truncSeqsAbove(m.ctrlSeqs, cutoff-1)
	m.fetchHead, m.fetchLen = 0, 0

	// Classify the squashed loads (Table 5).
	for _, sl := range squashedLoads {
		switch {
		case !sl.Issued || sl.Forwarded:
			m.Stats.SquashedLoadNI++
		case sl.Level == memsys.LevelL1:
			m.Stats.SquashedLoadL1H++
		case sl.Level == memsys.LevelL2:
			m.Stats.SquashedLoadL2H++
		default:
			m.Stats.SquashedLoadL2M++
		}
		if sl.Inflight {
			m.Stats.SquashedInflight++
		} else if sl.Completed && (sl.SEFE.L1Fill || sl.SEFE.L2Fill) {
			m.Stats.SquashedExecuted++
		}
	}

	// Epoch: loads issued after the squash are distinguishable from
	// stale in-flight responses (Section 3.3).
	m.hier.BumpEpoch(m.cfg.CoreID)

	// Redirect fetch, charging the baseline redirect penalty plus
	// whatever the policy's cleanup costs.
	m.fetchPC = redirectPC
	m.fetchHalted = false
	m.emit(trace.KindFetchRedirect, 0, redirectPC, 0, uint64(len(squashedLoads)))
	cost := m.pol.OnSquash(m, squashedLoads)
	m.Stats.InflightWaitCycles += cost.InflightWait
	m.Stats.CleanupOpCycles += cost.CleanupOps
	// The wait for in-flight loads overlaps the front-end refill the
	// baseline pays anyway (Section 2.4: cleanup overhead is partly
	// hidden by the pipeline drain); the cleanup operations themselves
	// serialize after both.
	hold := m.cfg.RedirectPenalty
	if cost.InflightWait > hold {
		hold = cost.InflightWait
	}
	stallUntil := m.now + hold + cost.CleanupOps
	if stallUntil > m.fetchStallUntil {
		m.fetchStallUntil = stallUntil
	}

	// The squash itself resolves visibility for older loads.
	m.promoteVisibility()
}

// RepairValueMisprediction fixes a value-predicted load whose validation
// returned a different value: every younger instruction (which may have
// consumed the wrong value) is squashed and refetched, and the load's
// result becomes the validated value. Policies using LoadValuePredict call
// this from their validation completion.
func (m *Machine) RepairValueMisprediction(e *LQEntry, actual uint64) {
	m.Stats.Squashes++
	m.Stats.ValueMispredicts++
	slot := e.slot
	rb := &m.rob[slot]
	m.doSquash(e.Seq+1, slot, rb.pc+1)
	e.Value = actual
	e.ValuePredicted = false
	rb.result = actual
}

// OlderInflightWait returns the number of cycles until the last currently
// in-flight (issued, incomplete) load completes — the "wait for inflight
// correct-path loads" component of a cleanup (Section 3.4). After a squash
// the LQ holds only correct-path loads.
func (m *Machine) OlderInflightWait() arch.Cycle {
	var max arch.Cycle
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, int32(m.cfg.LQSize)) {
		lq := &m.lq[i]
		if !lq.valid || !lq.Issued || lq.Completed {
			continue
		}
		if lq.DoneAt > m.now {
			if w := lq.DoneAt - m.now; w > max {
				max = w
			}
		}
	}
	return max
}

// LineReferencedByLiveLoad reports whether any live (non-squashed) load in
// the LQ references line — used by CleanupSpec to skip invalidating state
// that correct-path execution also justifies (Section 3.4, "Squashing Loads
// Re-ordered with Correct-Path Loads").
func (m *Machine) LineReferencedByLiveLoad(line arch.LineAddr) bool {
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, int32(m.cfg.LQSize)) {
		lq := &m.lq[i]
		if lq.valid && lq.HasAddr && lq.Line == line {
			return true
		}
	}
	return false
}
