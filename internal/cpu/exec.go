package cpu

import (
	"repro/internal/arch"
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

// issue begins execution for up to IssueWidth ready instructions, oldest
// first. A rdcycle is serializing and waits at the ROB head instead of in
// readyQ; the head is the oldest instruction, so it goes first.
func (m *Machine) issue() {
	issued := 0
	if m.robCount > 0 {
		if e := &m.rob[m.robHead]; e.state == stDispatched && e.inst.Op == isa.OpRdCycle {
			m.execute(m.robHead)
			issued++
		}
	}
	for issued < IssueWidth && m.readyQ.Len() > 0 {
		it := m.readyQ.Pop()
		if !m.live(it.Val, it.Seq) {
			continue
		}
		if m.rob[it.Val].state != stDispatched {
			continue
		}
		m.execute(it.Val)
		issued++
	}
}

// execute starts one instruction.
func (m *Machine) execute(slot int32) {
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
		// Serializing: issue executes it only as the oldest instruction,
		// like a timer read fenced on both sides (Section 4a's
		// observation that same-thread timing needs serializing
		// instructions).
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
		sq.ready = true
		m.rescan = true // a listed load may forward from it
		m.scheduleDone(slot, m.now+1)
		m.checkMemOrderViolation(e.sqIdx)
	case isa.OpLoad:
		e.state = stIssued
		lq := &m.lq[e.lqIdx]
		lq.Addr = arch.Addr(e.src1Val + uint64(in.Imm))
		lq.Line = lq.Addr.Line()
		lq.HasAddr = true
		stalls := m.Stats.LoadDelayStalls
		switch m.tryIssueLoad(e.lqIdx) {
		case loadIssued:
			return
		case loadHeld:
			// Its retries are refused the same way until an event sets
			// rescan, so a skipped scan counts its stalls too.
			m.heldStalls += m.Stats.LoadDelayStalls - stalls
		case loadBlocked:
			m.rescan = true
		}
		m.memRetry = append(m.memRetry, e.lqIdx)
	default:
		// Ops are validated at assembly: unreachable in a correct build.
		panic("cpu: unhandled op " + in.Op.String())
	}
}

// retryMem re-attempts the loads in memRetry, in list order. A scan that
// leaves only held loads is not repeated until an event sets rescan: a
// repeat would hold the same loads and count the same stalls, so each
// skipped scan counts those stalls alone.
func (m *Machine) retryMem() {
	if len(m.memRetry) == 0 {
		return
	}
	if !m.rescan {
		m.Stats.LoadDelayStalls += m.heldStalls
		return
	}
	stalls := m.Stats.LoadDelayStalls
	m.rescan = false
	rest := m.memRetry[:0]
	for _, idx := range m.memRetry {
		lq := &m.lq[idx]
		// A squash may have recycled this LQ slot for a new load whose
		// address is not computed yet; HasAddr filters that out.
		if !lq.valid || !lq.HasAddr || lq.Issued || lq.Completed {
			continue
		}
		switch m.tryIssueLoad(idx) {
		case loadIssued:
			continue
		case loadBlocked:
			m.rescan = true
		case loadHeld:
			// Refused the same way until an event sets rescan.
		}
		rest = append(rest, idx)
	}
	m.memRetry = rest
	m.heldStalls = m.Stats.LoadDelayStalls - stalls
}

// olderStoreBlocks scans the store queue for executed stores older than
// seq to the load's 8-byte word; the youngest one forwards its value. No
// store blocks a load: loads speculate past older stores with *unknown*
// addresses (store-set-free optimistic disambiguation, as real cores do),
// and checkMemOrderViolation squashes the rare load that guessed wrong.
func (m *Machine) olderStoreBlocks(seq uint64, addr arch.Addr) (fwd bool, val uint64) {
	for n, i := int32(0), m.sqHead; n < m.sqCount; n, i = n+1, ringNext(i, SQSize) {
		sq := &m.sq[i]
		if sq.valid && sq.ready && sq.seq < seq && sq.addr&^7 == addr&^7 {
			fwd, val = true, sq.value
		}
	}
	return fwd, val
}

// checkMemOrderViolation runs when a store's address resolves: any younger
// load that already issued to the same 8-byte word read stale data and must
// be squashed and re-executed (a memory-order squash).
func (m *Machine) checkMemOrderViolation(sqIdx int32) {
	sq := &m.sq[sqIdx]
	violator := int32(-1)
	var vseq uint64
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, LQSize) {
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

// issueResult is what tryIssueLoad did with a load.
type issueResult uint8

const (
	// loadIssued: sent to the memory system, forwarded from a store, or
	// completed with a predicted value.
	loadIssued issueResult = iota
	// loadHeld: refused until an event that sets Machine.rescan — an older
	// fence is uncommitted, the policy delays a speculative load, or a
	// GetS-Safe failed. Each retry until then is refused the same way,
	// counting the same LoadDelayStalls, because Policy.Mode answers the
	// same for the same load and spec.
	loadHeld
	// loadBlocked: refused for a reason that can pass in any cycle — the
	// L1 MSHRs are full, or a delay-on-miss load misses the L1.
	loadBlocked
)

// tryIssueLoad attempts to send a load with a resolved address to the
// memory system.
func (m *Machine) tryIssueLoad(idx int32) issueResult {
	lq := &m.lq[idx]
	// Fences: younger loads may not issue past an uncommitted fence.
	if len(m.fenceSeqs) > 0 && m.fenceSeqs[0] < lq.Seq {
		return loadHeld
	}
	if fwd, val := m.olderStoreBlocks(lq.Seq, lq.Addr); fwd {
		lq.Issued = true
		lq.Forwarded = true
		lq.Value = val
		lq.IssuedAt = m.now
		m.completeLoad(idx, m.now+1, memsys.LevelL1)
		return loadIssued
	}

	spec := m.hasOlderUnresolvedCtrl(lq.Seq)
	mode := m.pol.Mode(m, lq, spec)
	if mode == LoadDelayed && spec {
		m.Stats.LoadDelayStalls++
		return loadHeld
	}
	if mode == LoadDelayOnMiss && spec {
		if _, hit := m.hier.L1(m.cfg.CoreID).Probe(lq.Line); !hit {
			m.Stats.LoadDelayStalls++
			return loadBlocked
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
			return loadIssued
		}
	}
	if lq.DelayedSafe && spec {
		// A failed GetS-Safe keeps the load waiting until it is
		// unsquashable (Section 3.5).
		m.Stats.LoadDelayStalls++
		return loadHeld
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
		return loadBlocked // MSHR full
	}
	if iss.Level == memsys.LevelDelayed {
		lq.DelayedSafe = true
		m.Stats.LoadDelayStalls++
		return loadHeld
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
	return loadIssued
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
	oldest := m.ctrlSeqs[0] == e.seq
	m.ctrlSeqs = removeSeq(m.ctrlSeqs, e.seq)

	mispredict := actualNext != e.predTarget
	if mispredict {
		e.mispredicted = true
		m.Stats.Mispredicts++
		m.squash(slot, actualTaken, actualNext)
		return
	}
	if oldest {
		// Loads younger than this branch may be unsquashable now, and
		// the ones it held may issue; no other branch's resolution
		// changes which loads are squashable.
		m.rescan = true
	}
	// Correct resolution can make younger completed loads unsquashable.
	m.promoteVisibility()
}

// promoteVisibility notifies the policy about completed loads that just
// became unsquashable.
func (m *Machine) promoteVisibility() {
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, LQSize) {
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
		// A failed GetS-Safe retries as a plain GetS; the load is still
		// in memRetry, which it leaves only by issuing.
		lq.DelayedSafe = false
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
	stop := ringPrev(vSlot, ROBSize)
	m.emit(trace.KindMemOrderSquash, v.seq, v.pc, 0, 0)
	m.doSquash(v.seq, stop, v.pc)
}

// doSquash is the shared rollback: every instruction with seq >= cutoff is
// removed (the ROB walk stops at stopSlot, exclusive), squashed loads are
// handed to the policy, and fetch restarts at redirectPC after the redirect
// penalty plus the policy's cleanup stall.
func (m *Machine) doSquash(cutoff uint64, stopSlot int32, redirectPC arch.Addr) {
	m.rescan = true // drops the squashed loads from memRetry
	// Collect squashed loads in program order first (oldest to youngest).
	squashedLoads := m.squashBuf[:0]
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, LQSize) {
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
		last := ringPrev(m.robTail, ROBSize)
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
	hold := RedirectPenalty
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
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, LQSize) {
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
	for n, i := int32(0), m.lqHead; n < m.lqCount; n, i = n+1, ringNext(i, LQSize) {
		lq := &m.lq[i]
		if lq.valid && lq.HasAddr && lq.Line == line {
			return true
		}
	}
	return false
}
