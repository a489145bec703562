package cpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/memsys"
)

// loopProgram builds a long-running counted loop that never touches data
// memory.
func loopProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("livelock-loop")
	b.Li(1, iters)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	return b.Build()
}

// stuckLoadProgram is a counted loop that loads one line per iteration,
// so the first load's miss sits at the ROB head until DRAM replies.
func stuckLoadProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("stuck-load-loop")
	b.Li(1, iters)
	b.Li(2, 0x4000)
	b.Label("loop")
	b.Load(3, 2, 0)
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	return b.Build()
}

// newStuckLoadMachine runs stuckLoadProgram on a hierarchy whose DRAM
// answers after 100M cycles, far beyond any watchdog window: a memory
// system that never replies. The code is prewarmed into the I-cache, so
// fetch never waits on that DRAM and only the data load hangs.
func newStuckLoadMachine(t *testing.T) *Machine {
	t.Helper()
	prog := stuckLoadProgram(1_000_000)
	hcfg := memsys.DefaultConfig(1)
	hcfg.DRAM.RTCycles = 100_000_000
	h := memsys.New(hcfg)
	h.PrewarmICache(0, len(prog.Code))
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000
	return New(cfg, prog, h, nil)
}

func TestWatchdogNamesLoadWhoseFillNeverArrives(t *testing.T) {
	m := newStuckLoadMachine(t)
	m.cfg.WatchdogWindow = 2_000
	st := m.Run(0)

	le := m.Livelock()
	if le == nil {
		t.Fatal("watchdog did not fire on a load whose fill never arrives")
	}
	if m.LivelockErr() == nil {
		t.Fatal("LivelockErr nil despite diagnosis")
	}
	var asLE *LivelockError
	if !errors.As(m.LivelockErr(), &asLE) {
		t.Fatal("LivelockErr not an *LivelockError")
	}
	// Detection must happen within the configured window of the last
	// commit, not at MaxCycles.
	if le.Cycle > le.LastCommit+2_000+10 {
		t.Errorf("detected at cycle %d, want within the window of the last commit at %d", le.Cycle, le.LastCommit)
	}
	if st.Cycles >= uint64(m.cfg.MaxCycles) {
		t.Errorf("run burned to MaxCycles (%d cycles)", st.Cycles)
	}
	if le.Window != 2_000 {
		t.Errorf("window = %d, want 2000", le.Window)
	}
	const want = "MSHR (head load in flight, fill never arrived)"
	if le.Stalled != want {
		t.Errorf("stalled structure = %q, want %q", le.Stalled, want)
	}
	// Occupancy snapshots carry the configured capacities.
	if le.ROB.Cap != ROBSize || le.LQ.Cap != LQSize || le.SQ.Cap != SQSize {
		t.Errorf("capacities rob=%s lq=%s sq=%s", le.ROB, le.LQ, le.SQ)
	}
	// The loop keeps fetching behind the stuck load, so the ROB backs up
	// and the miss holds an MSHR.
	if le.ROB.Used <= 1 {
		t.Errorf("ROB holds %s at diagnosis, want the loop backed up behind the load", le.ROB)
	}
	if le.L1MSHR.Used == 0 {
		t.Errorf("L1 MSHR empty at diagnosis of an in-flight miss: %s", le.L1MSHR)
	}
	msg := le.Error()
	for _, frag := range []string{"livelock", "stalled on " + want, "rob="} {
		if !strings.Contains(msg, frag) {
			t.Errorf("Error() = %q missing %q", msg, frag)
		}
	}
}

func TestWatchdogSilentOnHealthyRun(t *testing.T) {
	m := newMachine(t, loopProgram(200), nil)
	m.cfg.WatchdogWindow = 2_000
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if m.Livelock() != nil || m.LivelockErr() != nil {
		t.Fatalf("healthy run diagnosed livelock: %v", m.LivelockErr())
	}
}

func TestWatchdogDisabledByZeroWindow(t *testing.T) {
	m := newStuckLoadMachine(t)
	m.cfg.WatchdogWindow = 0
	m.cfg.MaxCycles = 30_000
	st := m.Run(0)
	if m.Livelock() != nil {
		t.Fatal("disabled watchdog still fired")
	}
	if st.Cycles < 29_000 {
		t.Errorf("run stopped at %d cycles with watchdog off, want MaxCycles", st.Cycles)
	}
}
