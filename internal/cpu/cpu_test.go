package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/trace"
)

func newMachine(t *testing.T, prog *isa.Program, pol Policy) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000
	h := memsys.New(memsys.DefaultConfig(1))
	return New(cfg, prog, h, pol)
}

func TestALUChain(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.Li(1, 5)
	b.Li(2, 7)
	b.Add(3, 1, 2)
	b.AluI(isa.AluMul, 4, 3, 3) // r4 = 12*3 = 36
	b.Alu(isa.AluSub, 5, 4, 1)  // r5 = 31
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := m.Reg(5); got != 31 {
		t.Fatalf("r5 = %d, want 31", got)
	}
	if m.Stats.Committed != 6 {
		t.Fatalf("committed %d, want 6", m.Stats.Committed)
	}
}

func TestRegisterZeroIsHardwired(t *testing.T) {
	b := isa.NewBuilder("r0")
	b.Li(0, 99) // write discarded
	b.AddI(1, 0, 3)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(0) != 0 || m.Reg(1) != 3 {
		t.Fatalf("r0=%d r1=%d", m.Reg(0), m.Reg(1))
	}
}

func TestLoopCommitsExactCount(t *testing.T) {
	b := isa.NewBuilder("loop")
	b.Li(1, 10)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	// 1 li + 10*(add+br) + halt = 22.
	if m.Stats.Committed != 22 {
		t.Fatalf("committed %d, want 22", m.Stats.Committed)
	}
	if m.Reg(1) != 0 {
		t.Fatalf("r1 = %d", m.Reg(1))
	}
}

func TestStoreLoadThroughMemory(t *testing.T) {
	b := isa.NewBuilder("mem")
	b.Li(1, 0x1000)
	b.Li(2, 42)
	b.Store(1, 0, 2)
	b.Fence()
	b.Load(3, 1, 0)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(3) != 42 {
		t.Fatalf("r3 = %d, want 42", m.Reg(3))
	}
	if m.Memory().Read64(0x1000) != 42 {
		t.Fatal("store did not reach memory")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	b := isa.NewBuilder("fwd")
	b.Li(1, 0x2000)
	b.Li(2, 7)
	b.Store(1, 0, 2)
	b.Load(3, 1, 0) // must forward 7 from the SQ
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(3) != 7 {
		t.Fatalf("r3 = %d, want 7", m.Reg(3))
	}
}

func TestLoadWaitsForUnknownStoreAddress(t *testing.T) {
	// The store's address depends on a slow load; the younger load to the
	// same address must wait and then see the stored value.
	b := isa.NewBuilder("disamb")
	b.InitData(0x1000, 0x3000) // pointer
	b.Li(1, 0x1000)
	b.Load(2, 1, 0) // r2 = 0x3000 (slow: cold miss)
	b.Li(3, 55)
	b.Store(2, 0, 3) // mem[0x3000] = 55, address late
	b.Li(4, 0x3000)
	b.Load(5, 4, 0) // must not bypass the store
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(5) != 55 {
		t.Fatalf("r5 = %d, want 55", m.Reg(5))
	}
}

func TestCallRet(t *testing.T) {
	b := isa.NewBuilder("call")
	b.Li(1, 1)
	b.Call("fn")
	b.AddI(2, 2, 100) // after return
	b.Halt()
	b.Label("fn")
	b.AddI(2, 1, 10) // r2 = 11
	b.Ret()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(2) != 111 {
		t.Fatalf("r2 = %d, want 111", m.Reg(2))
	}
}

func TestRdCycleOrdersAroundLoads(t *testing.T) {
	// Timing a cold load vs a hot load must show a big difference: this
	// is the primitive the Spectre PoC's probe phase uses.
	b := isa.NewBuilder("timing")
	b.Li(1, 0x8000)
	b.RdCycle(10)
	b.Load(2, 1, 0) // cold: memory latency
	b.RdCycle(11)
	b.Load(3, 1, 0) // hot: L1 hit
	b.RdCycle(12)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	cold := m.Reg(11) - m.Reg(10)
	hot := m.Reg(12) - m.Reg(11)
	if cold < 100 {
		t.Fatalf("cold load took %d cycles; want >= memory latency", cold)
	}
	if hot >= cold/2 {
		t.Fatalf("hot load (%d) not clearly faster than cold (%d)", hot, cold)
	}
}

// TestRdCycleWaitDoesNotAllocate runs a Flush+Reload loop whose second
// rdcycle waits for a DRAM miss at the ROB head every round, and bounds the
// heap allocations of 100 rounds: a rdcycle waiting for the head must not
// cost an allocation per cycle.
func TestRdCycleWaitDoesNotAllocate(t *testing.T) {
	const round = 9 // instructions per loop iteration
	b := isa.NewBuilder("flush-reload")
	b.Li(1, 0x40000)
	b.Li(2, 1<<30)
	b.Label("loop")
	b.CLFlush(1, 0)
	b.Fence()
	b.RdCycle(8)
	b.Load(9, 1, 0)
	b.RdCycle(11)
	b.Alu(isa.AluSub, 12, 11, 8)
	b.Add(20, 20, 12)
	b.AddI(2, 2, -1)
	b.Br(isa.CondNE, 2, 0, "loop")
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(20 * round)
	target := m.Stats.Committed
	allocs := testing.AllocsPerRun(4, func() {
		target += 100 * round
		m.Run(target)
	})
	if m.Halted() || m.LivelockErr() != nil {
		t.Fatalf("machine stopped early (halted %v, livelock %v)", m.Halted(), m.LivelockErr())
	}
	// A round's clflush builds the directory's holder list, one
	// allocation; a waiting rdcycle that allocated would add one per cycle
	// of the DRAM miss.
	if perRound := allocs / 100; perRound > 2 {
		t.Errorf("%.1f allocations per Flush+Reload round, want <= 2", perRound)
	}
}

// mispredictProgram builds the canonical squash scenario: a branch whose
// condition depends on a slow load is actually taken but predicted
// not-taken (cold counters), so the fall-through — a wrong-path load — is
// fetched and executed transiently.
//
//	load r2, [0x1000]        ; = 1, cold miss (slow)
//	br NE r2, r0 -> correct  ; actual: taken; initial prediction: not taken
//	load r4, [0x3000]        ; wrong-path load
//	halt
//	correct: load r3, [0x2000] ; correct path
//	halt
func mispredictProgram() *isa.Program {
	b := isa.NewBuilder("mispredict")
	b.InitData(0x1000, 1)
	b.Li(1, 0x1000)
	b.Load(2, 1, 0)
	b.Br(isa.CondNE, 2, 0, "correct")
	b.Li(6, 0x3000)
	b.Load(4, 6, 0)
	b.Halt()
	b.Label("correct")
	b.Li(5, 0x2000)
	b.Load(3, 5, 0)
	b.Halt()
	return b.Build()
}

func TestMispredictSquashesWrongPath(t *testing.T) {
	m := newMachine(t, mispredictProgram(), nil)
	m.Run(0)
	if m.Stats.Squashes != 1 {
		t.Fatalf("squashes = %d, want 1", m.Stats.Squashes)
	}
	if m.Stats.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d", m.Stats.Mispredicts)
	}
	// The wrong-path result must never become architectural.
	if m.Reg(4) != 0 {
		t.Fatalf("wrong-path load committed: r4 = %d", m.Reg(4))
	}
	// Correct path ran.
	if m.Stats.LoadsCommitted != 2 {
		t.Fatalf("loads committed %d, want 2", m.Stats.LoadsCommitted)
	}
	if m.Stats.SquashedLoads == 0 {
		t.Fatal("the wrong-path load must be counted as squashed")
	}
}

func TestNonSecureRetainsWrongPathInstall(t *testing.T) {
	// Under the non-secure baseline, the wrong-path line stays in the
	// cache after the squash — the vulnerability CleanupSpec removes.
	m := newMachine(t, mispredictProgram(), NonSecure{})
	m.Run(0)
	wrongLine := arch.Addr(0x3000).Line()
	if m.Hierarchy().ProbeLevel(0, wrongLine) == memsys.LevelMem {
		t.Fatal("non-secure baseline should retain the wrong-path install")
	}
}

func TestSquashRestoresRAT(t *testing.T) {
	// After the squash, r4's rename must roll back so the correct path
	// sees the committed value.
	b := isa.NewBuilder("rat")
	b.InitData(0x1000, 1)
	b.Li(4, 77) // committed value of r4
	b.Li(1, 0x1000)
	b.Load(2, 1, 0)
	b.Br(isa.CondNE, 2, 0, "correct") // taken; predicted not-taken
	b.Li(4, 999)                      // wrong-path overwrite, must not leak into r5
	b.Nop()
	b.Nop()
	b.Halt()
	b.Label("correct")
	b.AddI(5, 4, 1) // r5 = 78 on the correct path
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Stats.Squashes == 0 {
		t.Fatal("scenario must squash")
	}
	if m.Reg(5) != 78 {
		t.Fatalf("r5 = %d, want 78 (RAT not restored?)", m.Reg(5))
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	b := isa.NewBuilder("learn")
	b.Li(1, 200)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	// A 200-iteration loop must mispredict only during local-history
	// warmup (one miss per fresh history pattern, ~11 bits) plus exits.
	if m.Stats.Mispredicts > 20 {
		t.Fatalf("%d mispredicts on a simple loop", m.Stats.Mispredicts)
	}
}

func TestFenceBlocksYoungerLoads(t *testing.T) {
	b := isa.NewBuilder("fence")
	b.Li(1, 0x4000)
	b.RdCycle(10)
	b.Fence()
	b.Load(2, 1, 0)
	b.RdCycle(11)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(11) <= m.Reg(10) {
		t.Fatal("rdcycle ordering broken")
	}
	if !m.Halted() {
		t.Fatal("fence deadlocked the pipeline")
	}
}

func TestCLFlushEvictsLine(t *testing.T) {
	b := isa.NewBuilder("clflush")
	b.Li(1, 0x5000)
	b.Load(2, 1, 0) // install
	b.CLFlush(1, 0)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Hierarchy().ProbeLevel(0, arch.Addr(0x5000).Line()) != memsys.LevelMem {
		t.Fatal("clflush did not evict the line")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := newMachine(t, mispredictProgram(), nil)
		return m.Run(0)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestTracerCapturesSquashStory(t *testing.T) {
	m := newMachine(t, mispredictProgram(), nil)
	ring := trace.NewRing(256)
	m.AttachTracer(ring)
	m.Run(0)
	if len(ring.Filter(trace.KindSquash)) != 1 {
		t.Fatalf("squash events: %d", len(ring.Filter(trace.KindSquash)))
	}
	if len(ring.Filter(trace.KindFetchRedirect)) != 1 {
		t.Fatal("missing fetch-redirect event")
	}
	if len(ring.Filter(trace.KindLoadIssue)) == 0 || len(ring.Filter(trace.KindLoadComplete)) == 0 {
		t.Fatal("missing load events")
	}
	if len(ring.Filter(trace.KindHalt)) != 1 {
		t.Fatal("missing halt event")
	}
	// Events must be in non-decreasing cycle order.
	evs := ring.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("trace out of order at %d: %v then %v", i, evs[i-1], evs[i])
		}
	}
}

func TestTracerDetachedCostsNothingVisible(t *testing.T) {
	// Just exercise the nil-tracer path end to end.
	m := newMachine(t, mispredictProgram(), nil)
	m.AttachTracer(nil)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
}

// inflightSquashProgram loops n times over an unpredictable branch whose
// condition is a cold load. Both paths load further cold lines, so most
// squashes catch a wrong-path load in flight, and the correct path's
// loads take over its LQ slot before the stale data returns.
func inflightSquashProgram(n int) *isa.Program {
	const table, cold = 0x100000, 0x400000
	b := isa.NewBuilder("inflight-squash")
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		b.InitData(arch.Addr(table+i*arch.LineBytes), rng&1)
	}
	b.Li(1, table)
	b.Li(2, int64(n))
	b.Li(5, cold)
	b.Label("loop")
	b.Load(3, 1, 0) // cold: the branch resolves ~100 cycles later
	b.AddI(5, 5, arch.LineBytes)
	b.Br(isa.CondNE, 3, 0, "taken")
	b.Load(6, 5, 0)
	b.Load(7, 5, 8)
	b.Jmp("join")
	b.Label("taken")
	b.Load(6, 5, 1<<16)
	b.Label("join")
	b.Add(8, 8, 6)
	b.AddI(1, 1, arch.LineBytes)
	b.AddI(2, 2, -1)
	b.Br(isa.CondNE, 2, 0, "loop")
	b.Halt()
	return b.Build()
}

// TestSquashedLoadNeverCompletesIntoNewOwner checks the completion filter
// that replaced detaching a squashed load's callback: every load completes
// at most once, so no stale response of a squashed in-flight load is taken
// for the younger load now holding its LQ slot (whose own response would
// then complete it a second time), and the architectural result still
// matches the interpreter.
func TestSquashedLoadNeverCompletesIntoNewOwner(t *testing.T) {
	prog := inflightSquashProgram(200)
	for _, pol := range []Policy{NonSecure{}, dropInflight{}} {
		m := newMachine(t, prog, pol)
		ring := trace.NewRing(1 << 16)
		m.AttachTracer(ring)
		m.Run(0)
		if !m.Halted() {
			t.Fatalf("%T: did not halt", pol)
		}
		if m.Stats.SquashedInflight == 0 {
			t.Fatalf("%T: no load was squashed in flight; the program does not exercise the filter", pol)
		}
		completions := make(map[uint64]int)
		for _, ev := range ring.Filter(trace.KindLoadComplete) {
			if completions[ev.Seq]++; completions[ev.Seq] > 1 {
				t.Fatalf("%T: load seq %d completed twice", pol, ev.Seq)
			}
		}
		ref := isa.NewInterp(prog)
		ref.Run(0)
		if got, want := m.Reg(8), ref.Reg(8); got != want {
			t.Fatalf("%T: r8 = %d, interpreter %d", pol, got, want)
		}
	}
}

// dropInflight is NonSecure except that squashed in-flight fills are
// dropped, so the stale responses arrive as dropped transactions.
type dropInflight struct{ NonSecure }

func (dropInflight) DropSquashedInflight() bool { return true }
