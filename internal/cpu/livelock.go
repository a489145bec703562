package cpu

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/isa"
)

// Occupancy is a used/capacity snapshot of one hardware structure at the
// moment a livelock was diagnosed.
type Occupancy struct {
	Used int `json:"used"`
	Cap  int `json:"cap"`
}

// String renders the snapshot as used/cap.
func (o Occupancy) String() string { return fmt.Sprintf("%d/%d", o.Used, o.Cap) }

// LivelockError is the forward-progress watchdog's diagnosis: the core
// committed nothing for Config.WatchdogWindow cycles. It names the
// structure the ROB head is stuck on and snapshots every queue an operator
// needs to tell "resource leak" from "lost wakeup" from "memory system
// never replied" — the structured replacement for the old watchdog panic.
type LivelockError struct {
	Window     arch.Cycle `json:"window"`      // configured no-commit window that expired
	Cycle      arch.Cycle `json:"cycle"`       // absolute cycle at detection
	LastCommit arch.Cycle `json:"last_commit"` // absolute cycle of the last retirement
	PC         arch.Addr  `json:"pc"`          // front-end fetch PC at detection
	Committed  uint64     `json:"committed"`   // instructions committed in the current window
	Stalled    string     `json:"stalled"`     // the structure progress is stuck on

	ROB    Occupancy `json:"rob"`
	LQ     Occupancy `json:"lq"`
	SQ     Occupancy `json:"sq"`
	L1MSHR Occupancy `json:"l1_mshr"`
	L2MSHR Occupancy `json:"l2_mshr"`

	// MemPending counts in-flight memory-system transactions.
	MemPending int `json:"mem_pending"`
}

// Error summarizes the diagnosis on one line.
func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"cpu: livelock: no commit for %d cycles (window %d) at cycle %d: stalled on %s (pc=%v committed=%d rob=%s lq=%s sq=%s l1mshr=%s l2mshr=%s mem-pending=%d)",
		//simlint:allow cyclemath -- the watchdog only constructs this error after proving Cycle > LastCommit+Window
		e.Cycle-e.LastCommit, e.Window, e.Cycle, e.Stalled, e.PC, e.Committed,
		e.ROB, e.LQ, e.SQ, e.L1MSHR, e.L2MSHR, e.MemPending)
}

// diagnoseLivelock builds the structured error for an expired watchdog
// window, walking from the ROB head outward to name the stuck structure.
func (m *Machine) diagnoseLivelock(window arch.Cycle) *LivelockError {
	e := &LivelockError{
		Window:     window,
		Cycle:      m.now,
		LastCommit: m.lastCommitCycle,
		PC:         m.fetchPC,
		Committed:  m.Stats.Committed,
		ROB:        Occupancy{Used: int(m.robCount), Cap: ROBSize},
		LQ:         Occupancy{Used: int(m.lqCount), Cap: LQSize},
		SQ:         Occupancy{Used: int(m.sqCount), Cap: SQSize},
		MemPending: m.hier.PendingLen(),
	}
	if mshr := m.hier.L1MSHR(m.cfg.CoreID); mshr != nil {
		e.L1MSHR = Occupancy{Used: mshr.Len(), Cap: mshr.Cap()}
	}
	if mshr := m.hier.L2MSHR(); mshr != nil {
		e.L2MSHR = Occupancy{Used: mshr.Len(), Cap: mshr.Cap()}
	}
	e.Stalled = m.stalledStructure()
	return e
}

// stalledStructure names what the oldest instruction is waiting on.
func (m *Machine) stalledStructure() string {
	if m.robCount == 0 {
		return "front end (ROB empty, nothing to commit)"
	}
	head := &m.rob[m.robHead]
	if head.state == stDone {
		return "commit (ROB head complete but not retiring)"
	}
	if head.inst.Op == isa.OpLoad && head.lqIdx >= 0 {
		lq := &m.lq[head.lqIdx]
		switch {
		case !lq.Issued:
			return "LQ (head load never issued)"
		case !lq.Completed:
			return "MSHR (head load in flight, fill never arrived)"
		default:
			return "LQ (head load completed but ROB entry never marked done)"
		}
	}
	if head.state == stDispatched {
		return fmt.Sprintf("issue (ROB head %v never issued)", head.inst.Op)
	}
	return fmt.Sprintf("ROB head (%v issued but never completed)", head.inst.Op)
}

// Livelock returns the watchdog diagnosis of the last Run, nil if the run
// made forward progress throughout.
func (m *Machine) Livelock() *LivelockError { return m.livelock }

// LivelockErr returns the diagnosis as an error, avoiding the typed-nil
// trap for callers that just want `if err != nil`.
func (m *Machine) LivelockErr() error {
	if m.livelock == nil {
		return nil
	}
	return m.livelock
}
