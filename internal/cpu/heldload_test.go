package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// specMode issues speculative loads in one mode, as the delay policies
// and CleanupSpec's GetS-Safe do (their packages import this one).
type specMode struct {
	NoHooks
	mode LoadMode
}

func (specMode) Name() string { return "spec-mode" }

func (p specMode) Mode(_ *Machine, _ *LQEntry, spec bool) LoadMode {
	if spec {
		return p.mode
	}
	return LoadNormal
}

// heldLoadProgram builds a program whose load at the returned PC is held
// under LoadDelayed, until exactly one event releases it:
//
//	"store":  an older store to its word executes, and the load forwards;
//	"fence":  the older fence commits;
//	"branch": the older branch resolves as predicted;
//	"squash": the older branch mispredicts, and the squash removes it;
//
// or, under LoadDelayOnMiss, until "fill": an older load fills its line
// into the L1, so it no longer misses.
//
// The slow event in each is a cold load (about 110 cycles); the store's
// address comes from a chain of multiplies, so it resolves long before,
// and for "fill" the branch's load waits on a longer chain, so it returns
// long after the line fills.
func heldLoadProgram(event string) (*isa.Program, arch.Addr) {
	const flag, word = 0x1000, 0x2000
	b := isa.NewBuilder("held-" + event)
	if event == "squash" {
		b.InitData(flag, 1) // taken, predicted not-taken
	}
	b.Li(1, flag)
	b.Li(4, 1)
	if event == "fill" {
		b.Li(3, word+8)
		b.Load(5, 3, 0)
		for i := 0; i < 30; i++ {
			b.Alu(isa.AluMul, 1, 1, 4)
		}
	}
	b.Load(2, 1, 0)
	switch event {
	case "store":
		b.Li(3, word)
		for i := 0; i < 6; i++ {
			b.Alu(isa.AluMul, 3, 3, 4)
		}
		b.Li(5, 42)
		b.Store(3, 0, 5)
		b.Br(isa.CondNE, 2, 0, "out")
	case "fence":
		b.Fence()
	default:
		b.Br(isa.CondNE, 2, 0, "out")
	}
	b.Li(6, word)
	held := b.PC()
	b.Load(7, 6, 0)
	b.Halt()
	b.Label("out")
	b.Halt()
	return b.Build(), held
}

// TestHeldLoadReleasedByEachEvent pins, for each event that can release a
// held load, the cycle the load leaves the retry list (it issues or
// forwards, or the squash removes it) and the LoadDelayStalls counted
// until the program halts.
func TestHeldLoadReleasedByEachEvent(t *testing.T) {
	for _, tc := range []struct {
		event   string
		release arch.Cycle
		stalls  uint64
	}{
		{"store", 22, 16},
		{"fence", 113, 0},
		{"branch", 114, 110},
		{"squash", 114, 110},
		{"fill", 113, 101},
	} {
		prog, pc := heldLoadProgram(tc.event)
		pol := specMode{mode: LoadDelayed}
		if tc.event == "fill" {
			pol.mode = LoadDelayOnMiss
		}
		m := newMachine(t, prog, pol)
		m.Hierarchy().PrewarmICache(0, len(prog.Code))
		ring := trace.NewRing(256)
		m.AttachTracer(ring)
		m.Run(0)
		if !m.Halted() {
			t.Fatalf("%s: did not halt (livelock %v)", tc.event, m.LivelockErr())
		}
		var release arch.Cycle
		for _, ev := range ring.Events() {
			issued := (ev.Kind == trace.KindLoadIssue || ev.Kind == trace.KindLoadComplete) && ev.PC == pc
			if issued || tc.event == "squash" && ev.Kind == trace.KindSquash {
				release = ev.Cycle
				break
			}
		}
		if release != tc.release || m.Stats.LoadDelayStalls != tc.stalls {
			t.Errorf("%s: released at cycle %d with %d stalls, want %d and %d",
				tc.event, release, m.Stats.LoadDelayStalls, tc.release, tc.stalls)
		}
		if tc.event == "store" && m.Reg(7) != 42 {
			t.Errorf("store: r7 = %d, want the forwarded 42", m.Reg(7))
		}
	}
}

// TestGetSSafeDelayListedOnce holds a speculative load whose line another
// core owns (a failed GetS-Safe) until its branch resolves, and keeps it
// refused after that: the one L1 MSHR is busy with an older miss. The
// load must sit in the retry list once, not once more for the lift.
func TestGetSSafeDelayListedOnce(t *testing.T) {
	const flag, other, owned = 0x1000, 0x3000, 0x5000
	hcfg := memsys.DefaultConfig(2)
	hcfg.L1MSHRs = 1
	h := memsys.New(hcfg)
	h.StoreOwned(1, 0, arch.Addr(owned).Line(), 0)

	b := isa.NewBuilder("gets-safe-listed-once")
	b.Li(1, flag)
	b.Load(2, 1, 0) // cold: takes the MSHR, resolves the branch late
	b.Li(3, other)
	b.Load(4, 3, 0) // cold: takes the MSHR as the flag returns
	b.Br(isa.CondNE, 2, 0, "out")
	b.Li(5, owned)
	b.Load(6, 5, 0) // GetS-Safe fails: core 1 owns the line
	b.Halt()
	b.Label("out")
	b.Halt()
	cfg := DefaultConfig()
	cfg.MaxCycles = 100_000
	m := New(cfg, b.Build(), h, specMode{mode: LoadNormalSafe})
	for !m.Halted() && m.Now() < cfg.MaxCycles {
		m.Step()
		seen := make(map[int32]bool)
		for _, idx := range m.memRetry {
			if seen[idx] {
				t.Fatalf("cycle %d: LQ %d listed twice in %v", m.Now(), idx, m.memRetry)
			}
			seen[idx] = true
		}
	}
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if h.Stats.SafeGetSDelays == 0 {
		t.Fatal("no GetS-Safe delay: the scenario does not exercise the lift")
	}
}
