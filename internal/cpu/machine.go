// Package cpu implements the cycle-stepped out-of-order core of the paper's
// Table 4: 192-entry ROB, 32-entry load and store queues, a tournament
// branch predictor with BTB and RAS, 4-wide fetch/issue/commit, and — the
// part that matters for CleanupSpec — full wrong-path execution: fetch
// follows the predicted path, speculative loads really access and modify
// the cache hierarchy, and a mispredicted branch squashes the wrong path
// and hands the squashed loads to the active security policy.
package cpu

import (
	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/heapq"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Level re-exports memsys.Level for policy implementations.
type Level = memsys.Level

// SEFEInfo re-exports the cache SEFE for policy implementations.
type SEFEInfo = cache.SEFE

// Config configures the core.
type Config struct {
	ROBSize     int
	LQSize      int
	SQSize      int
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	// RedirectPenalty is the front-end refill delay after any squash —
	// the fetch-to-execute depth of the pipeline — paid by secure and
	// non-secure configurations alike. A policy's inflight-wait stall
	// overlaps with it (the paper's Section 2.4: cleanup overhead is
	// partly hidden by the pipeline drain incurred in any case).
	RedirectPenalty arch.Cycle
	Branch          branch.Config
	CoreID          int
	// ThreadID is the hardware thread within the core (SMT); it selects
	// the L1 way partition and the speculative-install identity. Two
	// Machines with the same CoreID, different ThreadIDs, and a shared
	// Hierarchy form an SMT pair (drive them in lockstep with Step).
	ThreadID int
	// MaxCycles aborts a runaway simulation (0 = no limit).
	MaxCycles arch.Cycle
	// WatchdogWindow is the forward-progress watchdog: when no
	// instruction commits for this many cycles, Run stops and records a
	// structured LivelockError (see Livelock / LivelockErr) naming the
	// stalled structure with queue-occupancy snapshots. 0 disables the
	// watchdog.
	WatchdogWindow arch.Cycle
}

// DefaultConfig returns the paper's Table 4 core.
func DefaultConfig() Config {
	return Config{
		ROBSize:         192,
		LQSize:          32,
		SQSize:          32,
		FetchWidth:      4,
		IssueWidth:      4,
		CommitWidth:     4,
		RedirectPenalty: 16,
		Branch:          branch.DefaultConfig(),
		WatchdogWindow:  200_000,
	}
}

// robState is an instruction's execution state.
type robState uint8

const (
	stDispatched robState = iota
	stIssued
	stDone
)

type consumer struct {
	slot int32
	seq  uint64
	src  uint8 // 1 or 2
}

// ROBEntry is one reorder-buffer slot: the state every pipeline stage
// touches. The predictor state only control instructions need lives in
// the robPred side array, and the fields are ordered to pack (144 B), so
// the 192-entry ROB fits in a host's L1 data cache.
type ROBEntry struct {
	seq  uint64
	pc   arch.Addr
	inst isa.Inst

	src1Val, src2Val uint64
	result           uint64
	oldRatSeq        uint64 // seq of the previous producer (staleness check)
	consumers        []consumer

	predTarget arch.Addr // predicted next PC
	doneAt     arch.Cycle

	oldRat       int32
	lqIdx, sqIdx int32 // LQ/SQ slot of a load/store, else -1

	pendSrcs             int8
	state                robState
	valid                bool
	src1Ready, src2Ready bool
	hasRd                bool
	isCtrl               bool
	wakeDeferred         bool // value ready but dependents not yet woken
	mispredicted         bool // resolved against its prediction
}

// robPred is the cold half of a ROB entry: the predictor state a control
// instruction saves at fetch and reads again only when it resolves or
// squashes. Machine.robPred holds one per ROB slot; it is written only for
// branches and returns, the instructions that can mispredict.
type robPred struct {
	state    branch.PredState // direction prediction (conditional branches)
	snapshot branch.Snapshot  // front-end checkpoint for squash recovery
}

// LQEntry is one load-queue slot. Policies read and annotate it.
type LQEntry struct {
	valid   bool
	slot    int32
	Seq     uint64
	PC      arch.Addr
	Addr    arch.Addr
	Line    arch.LineAddr
	HasAddr bool

	Issued    bool
	Forwarded bool
	Completed bool
	Level     Level
	SEFE      SEFEInfo
	FillOrder uint64
	Value     uint64

	IssuedAt arch.Cycle
	// DoneAt is the cycle the data returns: set when the load issues to
	// the memory system, final when it completes.
	DoneAt arch.Cycle

	// IssuedMode is the LoadMode the load was actually issued with.
	IssuedMode LoadMode

	// Policy scratch state.
	Visible        bool // no older unresolved control flow
	UpdateLaunched bool
	UpdateDoneAt   arch.Cycle
	DelayedSafe    bool // GetS-Safe failed; waiting to be unsquashable
	ValuePredicted bool // completed with a predicted value, not yet validated
}

type sqEntry struct {
	valid      bool
	slot       int32
	seq        uint64
	addr       arch.Addr
	value      uint64
	addrReady  bool
	valueReady bool
}

// Stats counts core events.
type Stats struct {
	//simlint:allow metricscomplete -- Cycles is only materialized when Run returns; the live value is published as the cpu.cycles CounterFunc
	Cycles    uint64
	Committed uint64
	Fetched   uint64

	LoadsCommitted       uint64
	StoresCommitted      uint64
	BranchesResolved     uint64
	Mispredicts          uint64
	BranchesCommitted    uint64
	MispredictsCommitted uint64

	Squashes         uint64
	MemOrderSquashes uint64
	ValueMispredicts uint64
	SquashedInsts    uint64
	SquashedLoads    uint64
	SquashedLoadNI   uint64 // not issued (or store-forwarded)
	SquashedLoadL1H  uint64
	SquashedLoadL2H  uint64
	SquashedLoadL2M  uint64
	SquashedInflight uint64 // issued, data not yet back: fill dropped
	SquashedExecuted uint64 // completed with fills: needs cleanup ops

	InflightWaitCycles arch.Cycle
	CleanupOpCycles    arch.Cycle

	LoadDelayStalls uint64 // loads held by LoadDelayed / GetS-Safe
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// fetchSlot is one pre-decoded instruction waiting for dispatch.
type fetchSlot struct {
	pc       arch.Addr
	inst     isa.Inst
	predNext arch.Addr
	pred     robPred // set for branches and returns only
}

// Machine is one simulated core bound to a program and a hierarchy.
type Machine struct {
	cfg  Config
	prog *isa.Program
	mem  *isa.Memory
	hier *memsys.Hierarchy
	bp   *branch.Predictor
	pol  Policy

	now    arch.Cycle
	halted bool

	rob      []ROBEntry
	robPred  []robPred // cold prediction state, by ROB slot
	robHead  int32
	robTail  int32
	robCount int32

	lq      []LQEntry
	lqHead  int32
	lqTail  int32
	lqCount int32

	sq      []sqEntry
	sqHead  int32
	sqTail  int32
	sqCount int32

	rat  [isa.NumRegs]int32
	regs [isa.NumRegs]uint64

	fetchPC         arch.Addr
	fetchBuf        []fetchSlot // ring of 2*FetchWidth fetched instructions
	fetchHead       int32       // oldest fetched instruction
	fetchLen        int32
	fetchStallUntil arch.Cycle
	fetchHalted     bool // a halt was fetched; only a squash resumes fetch

	seqGen uint64

	readyQ    heapq.Heap[int32] // ROB slots ready to begin execution, oldest first
	doneQ     heapq.Heap[int32] // ROB slots by scheduled completion cycle
	wakeQ     heapq.Heap[int32] // ROB slots by deferred dependent-wakeup cycle
	memRetry  []int32           // LQ indices blocked on issue conditions
	fenceSeqs []uint64          // uncommitted fences, ascending
	ctrlSeqs  []uint64          // unresolved squashable control insts, ascending

	// onLoad is onLoadData bound once, the completion callback of every
	// load this core issues; the Txn's Tag names the LQ slot.
	onLoad func(*memsys.Txn)
	// squashBuf is doSquash's squashed-load worklist, reused across
	// squashes (OnSquash may not keep it).
	squashBuf []SquashedLoad

	lastCommitCycle arch.Cycle
	cycleBase       arch.Cycle
	committedBase   uint64

	stallFrom arch.Cycle // injected commit stall (0 = none); see InjectCommitStall
	livelock  *LivelockError

	tracer  *trace.Ring
	sampler *metrics.Sampler
	hists   machineHists

	Stats Stats
}

// machineHists holds the core's registered histograms; all nil when the
// machine is uninstrumented, so each observation site costs one nil check.
type machineHists struct {
	// loadToSquash is the issue-to-squash distance in cycles of squashed
	// loads that actually reached the memory system.
	loadToSquash *metrics.Histogram
	// exposedWindow is how long a speculative cache install stayed exposed
	// before its window closed (commit, or the squash that cleaned it).
	exposedWindow *metrics.Histogram
}

// New creates a machine. The memory image is initialized from the program.
func New(cfg Config, prog *isa.Program, hier *memsys.Hierarchy, pol Policy) *Machine {
	if cfg.ROBSize <= 0 || cfg.LQSize <= 0 || cfg.SQSize <= 0 {
		//simlint:allow errdiscipline -- construction-time queue-size validation; a bad config is a programmer error caught before any simulation runs
		panic("cpu: bad queue sizes")
	}
	if pol == nil {
		pol = NonSecure{}
	}
	m := &Machine{
		cfg:      cfg,
		prog:     prog,
		mem:      isa.NewMemory(),
		hier:     hier,
		bp:       branch.New(cfg.Branch),
		pol:      pol,
		rob:      make([]ROBEntry, cfg.ROBSize),
		robPred:  make([]robPred, cfg.ROBSize),
		lq:       make([]LQEntry, cfg.LQSize),
		sq:       make([]sqEntry, cfg.SQSize),
		fetchPC:  prog.Entry,
		fetchBuf: make([]fetchSlot, 2*cfg.FetchWidth),
	}
	m.onLoad = m.onLoadData
	m.mem.LoadProgram(prog)
	for i := range m.rat {
		m.rat[i] = -1
	}
	return m
}

// Hierarchy returns the machine's memory system (for policies).
func (m *Machine) Hierarchy() *memsys.Hierarchy { return m.hier }

// SnapshotHierarchy drains in-flight memory transactions and captures the
// hierarchy's observable tag-array state — the attacker-observer probe the
// specfuzz differential oracle compares across secret values. Draining
// first makes the capture deterministic: fills of squashed loads either
// land (non-secure) or have been dropped (CleanupSpec) before the tags are
// read, never "still in flight".
func (m *Machine) SnapshotHierarchy() memsys.Snapshot {
	m.DrainMemory()
	return m.hier.Snapshot()
}

// Memory returns the functional data memory.
func (m *Machine) Memory() *isa.Memory { return m.mem }

// Now returns the current cycle.
func (m *Machine) Now() arch.Cycle { return m.now }

// CoreID returns the core's id in the hierarchy.
func (m *Machine) CoreID() int { return m.cfg.CoreID }

// ThreadID returns the hardware-thread id within the core.
func (m *Machine) ThreadID() int { return m.cfg.ThreadID }

// OwnerID returns the SMT installer identity (core, thread folded).
func (m *Machine) OwnerID() int { return memsys.SMTID(m.cfg.CoreID, m.cfg.ThreadID) }

// waiterID tags a load sequence number with the thread so MSHR waiter ids
// from SMT siblings sharing the hierarchy never collide.
func (m *Machine) waiterID(seq uint64) uint64 { return seq<<6 | uint64(m.cfg.ThreadID) }

// Step advances the machine by exactly one cycle. SMT harnesses drive two
// machines sharing a hierarchy in lockstep with alternating Step calls
// (the shared hierarchy's Tick is idempotent per cycle).
func (m *Machine) Step() {
	if !m.halted {
		m.step()
	}
}

// Halted reports whether the program committed a halt.
func (m *Machine) Halted() bool { return m.halted }

// AttachTracer starts recording structured events into r (nil detaches).
// Tracing costs one nil-check per event site when detached.
func (m *Machine) AttachTracer(r *trace.Ring) { m.tracer = r }

// AttachMetrics registers the core's counters and histograms into reg.
// Every Stats field is bound by pointer — the hot path keeps its plain
// `Stats.Field++` — and the cycle count is published as a function so the
// registry always sees the current measurement-window-relative cycle
// (Stats.Cycles itself is only materialized when Run returns).
func (m *Machine) AttachMetrics(reg *metrics.Registry) {
	s := &m.Stats
	reg.CounterFunc("cpu.cycles", func() uint64 { return m.windowCycles() })
	reg.BindCounter("cpu.committed", &s.Committed)
	reg.BindCounter("cpu.fetched", &s.Fetched)
	reg.BindCounter("cpu.loads_committed", &s.LoadsCommitted)
	reg.BindCounter("cpu.stores_committed", &s.StoresCommitted)
	reg.BindCounter("cpu.branches_resolved", &s.BranchesResolved)
	reg.BindCounter("cpu.branches_committed", &s.BranchesCommitted)
	reg.BindCounter("cpu.mispredicts", &s.Mispredicts)
	reg.BindCounter("cpu.mispredicts_committed", &s.MispredictsCommitted)
	reg.BindCounter("cpu.squashes", &s.Squashes)
	reg.BindCounter("cpu.mem_order_squashes", &s.MemOrderSquashes)
	reg.BindCounter("cpu.value_mispredicts", &s.ValueMispredicts)
	reg.BindCounter("cpu.squashed_insts", &s.SquashedInsts)
	reg.BindCounter("cpu.squashed_loads", &s.SquashedLoads)
	reg.BindCounter("cpu.squashed_load_ni", &s.SquashedLoadNI)
	reg.BindCounter("cpu.squashed_load_l1h", &s.SquashedLoadL1H)
	reg.BindCounter("cpu.squashed_load_l2h", &s.SquashedLoadL2H)
	reg.BindCounter("cpu.squashed_load_l2m", &s.SquashedLoadL2M)
	reg.BindCounter("cpu.squashed_inflight", &s.SquashedInflight)
	reg.BindCounter("cpu.squashed_executed", &s.SquashedExecuted)
	reg.CounterFunc("cpu.inflight_wait_cycles", func() uint64 { return uint64(s.InflightWaitCycles) })
	reg.CounterFunc("cpu.cleanup_op_cycles", func() uint64 { return uint64(s.CleanupOpCycles) })
	reg.BindCounter("cpu.load_delay_stalls", &s.LoadDelayStalls)
	reg.GaugeFunc("cpu.rob_occupancy", func() float64 { return float64(m.robCount) })
	reg.GaugeFunc("cpu.lq_occupancy", func() float64 { return float64(m.lqCount) })
	m.hists.loadToSquash = reg.Histogram("cpu.load_to_squash_cycles")
	m.hists.exposedWindow = reg.Histogram("cpu.exposed_window_cycles")
}

// AttachSampler starts interval sampling: the sampler's Tick runs once per
// simulated cycle with the measurement-window-relative cycle number. The
// caller flushes it after Run (nil detaches).
func (m *Machine) AttachSampler(s *metrics.Sampler) { m.sampler = s }

// emit records a trace event if a tracer is attached.
func (m *Machine) emit(k trace.Kind, seq uint64, pc arch.Addr, line arch.LineAddr, arg uint64) {
	if m.tracer != nil {
		m.tracer.Emit(trace.Event{Cycle: m.now, Kind: k, Seq: seq, PC: pc, Line: line, Arg: arg})
	}
}

// ResetStats zeroes the core's statistics so that a measurement window can
// exclude warmup (the simulated-time and committed-instruction baselines
// shift; architectural and cache state are untouched). The caller usually
// also resets the hierarchy's stats.
func (m *Machine) ResetStats() {
	m.cycleBase = m.now
	m.committedBase += m.Stats.Committed
	m.Stats = Stats{}
}

// windowCycles returns the simulated cycles elapsed in the current
// measurement window. cycleBase is only ever captured from m.now (which
// is monotone), so the subtraction cannot wrap; the guard makes that
// invariant local and provable instead of implicit.
func (m *Machine) windowCycles() uint64 {
	if m.now < m.cycleBase {
		return 0
	}
	return uint64(m.now - m.cycleBase)
}

// Run simulates until the program halts, maxInstructions commit (within the
// current measurement window), or the cycle limit is reached. It returns
// the stats snapshot.
func (m *Machine) Run(maxInstructions uint64) Stats {
	limit := m.cfg.MaxCycles
	watchdog := m.cfg.WatchdogWindow
	m.livelock = nil
	for !m.halted && (maxInstructions == 0 || m.Stats.Committed < maxInstructions) {
		if limit != 0 && m.now >= limit {
			break
		}
		m.step()
		// Wrap-safe watchdog: comparing against the sum instead of
		// subtracting means a (model-bug) lastCommitCycle ahead of now
		// reads as "no stall" rather than an instant ~1.8e19-cycle stall.
		if watchdog != 0 && m.now > m.lastCommitCycle+watchdog {
			// Forward-progress watchdog: a commit stall this long is a
			// model bug or an injected livelock. Diagnose and stop
			// instead of burning to MaxCycles.
			m.livelock = m.diagnoseLivelock(watchdog)
			break
		}
	}
	m.Stats.Cycles = m.windowCycles()
	return m.Stats
}

// DrainMemory advances simulated time until no memory transactions remain
// in flight, jumping from one completion to the next. Tests and attack
// harnesses call it after Run so that fills of squashed in-flight loads
// either land (non-secure) or are dropped (CleanupSpec) before cache state
// is inspected.
func (m *Machine) DrainMemory() {
	for {
		at, ok := m.hier.NextPending()
		if !ok {
			return
		}
		m.now = max(m.now+1, at)
		m.hier.Tick(m.now)
	}
}

// step advances one cycle.
func (m *Machine) step() {
	m.now++
	m.hier.Tick(m.now)
	m.processWakes()
	m.processCompletions()
	m.commit()
	m.issue()
	m.retryMem()
	m.dispatch()
	m.fetch()
	if m.sampler != nil {
		// Sample at end of cycle so the snapshot reflects this cycle's
		// commits; the cycle number is window-relative, matching the
		// Stats.Cycles the run ultimately reports.
		m.sampler.Tick(m.windowCycles())
	}
}

// --- sequence helpers ---

func (m *Machine) nextSeq() uint64 {
	m.seqGen++
	return m.seqGen
}

// hasOlderUnresolvedCtrl reports whether any squashable control-flow
// instruction older than seq is still unresolved.
func (m *Machine) hasOlderUnresolvedCtrl(seq uint64) bool {
	return len(m.ctrlSeqs) > 0 && m.ctrlSeqs[0] < seq
}

func removeSeq(seqs []uint64, seq uint64) []uint64 {
	for i, s := range seqs {
		if s == seq {
			return append(seqs[:i], seqs[i+1:]...)
		}
	}
	return seqs
}

// truncSeqsAbove removes all seqs greater than bound.
func truncSeqsAbove(seqs []uint64, bound uint64) []uint64 {
	out := seqs[:0]
	for _, s := range seqs {
		if s <= bound {
			//simlint:allow hotalloc -- in-place filter into seqs[:0]; the result is never longer than the input, so this append cannot grow
			out = append(out, s)
		}
	}
	return out
}

// ringNext returns the index after i in a ring of n slots.
func ringNext(i, n int32) int32 {
	if i++; i == n {
		return 0
	}
	return i
}

// ringPrev returns the index before i in a ring of n slots.
func ringPrev(i, n int32) int32 {
	if i == 0 {
		i = n
	}
	return i - 1
}

// --- fetch ---

// fetch fills the fetch buffer along the predicted path.
func (m *Machine) fetch() {
	if m.halted || m.fetchHalted || m.now < m.fetchStallUntil {
		return
	}
	size := int32(len(m.fetchBuf))
	for m.fetchLen < size {
		// Instruction cache: a miss stalls the front end.
		if ready := m.hier.IFetch(m.cfg.CoreID, m.fetchPC, m.now); ready > m.now {
			m.fetchStallUntil = ready
			return
		}
		tail := m.fetchHead + m.fetchLen
		if tail >= size {
			tail -= size
		}
		fs := &m.fetchBuf[tail]
		pc := m.fetchPC
		fs.pc = pc
		fs.inst = m.prog.Fetch(pc)
		switch fs.inst.Op {
		case isa.OpBranch:
			fs.pred.snapshot = m.bp.Checkpoint()
			fs.pred.state = m.bp.Predict(pc)
			if fs.pred.state.Taken {
				fs.predNext = fs.inst.Target
			} else {
				fs.predNext = pc + 1
			}
		case isa.OpJump:
			fs.predNext = fs.inst.Target
		case isa.OpCall:
			m.bp.Push(pc + 1)
			fs.predNext = fs.inst.Target
		case isa.OpRet:
			fs.pred.snapshot = m.bp.Checkpoint()
			fs.predNext = m.bp.Pop()
		default:
			fs.predNext = pc + 1
		}
		m.fetchLen++
		m.fetchPC = fs.predNext
		m.Stats.Fetched++
		if fs.inst.Op == isa.OpHalt {
			// A halt serializes the front end (like an exit syscall):
			// nothing is fetched past it. If it was fetched on the
			// wrong path, the squash redirect resumes fetching.
			m.fetchHalted = true
			break
		}
	}
}

// --- dispatch ---

// dispatch renames and inserts fetched instructions into the ROB/LQ/SQ.
func (m *Machine) dispatch() {
	for n := 0; n < m.cfg.FetchWidth && m.fetchLen > 0; n++ {
		if m.robCount >= int32(m.cfg.ROBSize) {
			return
		}
		fs := &m.fetchBuf[m.fetchHead]
		op := fs.inst.Op
		if op == isa.OpLoad && m.lqCount >= int32(m.cfg.LQSize) {
			return
		}
		if op == isa.OpStore && m.sqCount >= int32(m.cfg.SQSize) {
			return
		}
		m.fetchHead = ringNext(m.fetchHead, int32(len(m.fetchBuf)))
		m.fetchLen--

		slot := m.robTail
		m.robTail = ringNext(m.robTail, int32(m.cfg.ROBSize))
		m.robCount++
		seq := m.nextSeq()
		e := &m.rob[slot]
		// Recycle the slot's consumer list: a fresh nil here would throw
		// away its capacity and make every bindSource append allocate
		// anew for the lifetime of the run.
		consumers := e.consumers[:0]
		*e = ROBEntry{}
		e.consumers = consumers
		e.valid = true
		e.seq = seq
		e.pc = fs.pc
		e.inst = fs.inst
		e.state = stDispatched
		e.oldRat, e.lqIdx, e.sqIdx = -1, -1, -1
		e.predTarget = fs.predNext
		e.src1Ready, e.src2Ready = true, true

		// Source operands.
		needs1, needs2 := srcNeeds(fs.inst)
		if needs1 {
			m.bindSource(slot, 1, fs.inst.Rs1)
		}
		if needs2 {
			m.bindSource(slot, 2, fs.inst.Rs2)
		}

		// Destination rename.
		rd := destReg(fs.inst)
		if rd != 0 {
			e.hasRd = true
			e.oldRat = m.rat[rd]
			if e.oldRat >= 0 {
				e.oldRatSeq = m.rob[e.oldRat].seq
			}
			m.rat[rd] = slot
		}

		switch op {
		case isa.OpLoad:
			idx := m.lqTail
			m.lqTail = ringNext(m.lqTail, int32(m.cfg.LQSize))
			m.lqCount++
			lq := &m.lq[idx]
			*lq = LQEntry{}
			lq.valid = true
			lq.slot = slot
			lq.Seq = seq
			lq.PC = fs.pc
			e.lqIdx = idx
		case isa.OpStore:
			idx := m.sqTail
			m.sqTail = ringNext(m.sqTail, int32(m.cfg.SQSize))
			m.sqCount++
			m.sq[idx] = sqEntry{valid: true, slot: slot, seq: seq}
			e.sqIdx = idx
		case isa.OpFence:
			//simlint:allow hotalloc -- bounded by in-flight fences (at most ROB size); capacity is recycled by the in-place removeSeq/truncSeqsAbove filters
			m.fenceSeqs = append(m.fenceSeqs, seq)
		case isa.OpBranch, isa.OpRet:
			e.isCtrl = true
			m.robPred[slot] = fs.pred
			//simlint:allow hotalloc -- bounded by in-flight branches (at most ROB size); capacity is recycled by the in-place removeSeq/truncSeqsAbove filters
			m.ctrlSeqs = append(m.ctrlSeqs, seq)
		default:
			// Other ops occupy only their ROB slot: no LQ/SQ/fence
			// resources to reserve at rename.
		}

		// A rdcycle never enters readyQ: it executes only as the ROB
		// head, and issue looks for it there.
		if e.pendSrcs == 0 && op != isa.OpRdCycle {
			m.pushReady(slot, seq)
		}
	}
}

// bindSource resolves one source register at rename time.
func (m *Machine) bindSource(slot int32, which uint8, r isa.Reg) {
	e := &m.rob[slot]
	if r == 0 {
		m.setSrc(e, which, 0)
		return
	}
	p := m.rat[r]
	if p < 0 {
		m.setSrc(e, which, m.regs[r])
		return
	}
	pe := &m.rob[p]
	if pe.state == stDone && !pe.wakeDeferred {
		m.setSrc(e, which, pe.result)
		return
	}
	// Wait for the producer.
	if which == 1 {
		e.src1Ready = false
	} else {
		e.src2Ready = false
	}
	e.pendSrcs++
	//simlint:allow hotalloc -- bounded by each producer's dependents; the backing array is recycled via consumers[:0] when the ROB entry is reused
	pe.consumers = append(pe.consumers, consumer{slot: slot, seq: e.seq, src: which})
}

func (m *Machine) setSrc(e *ROBEntry, which uint8, v uint64) {
	if which == 1 {
		e.src1Val = v
		e.src1Ready = true
	} else {
		e.src2Val = v
		e.src2Ready = true
	}
}

// srcNeeds returns which register sources an instruction reads.
func srcNeeds(in isa.Inst) (rs1, rs2 bool) {
	switch in.Op {
	case isa.OpALU:
		return true, !in.UseImm
	case isa.OpLoad, isa.OpCLFlush:
		return true, false
	case isa.OpStore, isa.OpBranch:
		return true, true
	case isa.OpRet:
		return true, false // link register value
	default:
		// OpNop, OpJump, OpCall, OpFence, OpRdCycle, OpHalt read no
		// register sources.
		return false, false
	}
}

// destReg returns the destination register (0 = none; writes to r0 are
// discarded, making r0 a hard-wired zero).
func destReg(in isa.Inst) isa.Reg {
	switch in.Op {
	case isa.OpALU, isa.OpLoad, isa.OpRdCycle:
		return in.Rd
	case isa.OpCall:
		return isa.Reg(31) // link register
	default:
		// Every other op writes no destination register.
		return 0
	}
}
