package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/testprog"
	"repro/internal/trace"
)

func runScenario(t *testing.T, pol cpu.Policy, progName string) (*cpu.Machine, *memsys.Hierarchy) {
	t.Helper()
	return runTracedScenario(t, pol, progName, nil)
}

// runTracedScenario is runScenario with tr attached to the machine (nil
// runs untraced).
func runTracedScenario(t *testing.T, pol cpu.Policy, progName string, tr *trace.Ring) (*cpu.Machine, *memsys.Hierarchy) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	var hcfg memsys.Config
	if _, ok := pol.(*CleanupSpec); ok {
		hcfg = HierarchyConfig(testprog.SmallConfig())
	} else {
		hcfg = testprog.SmallConfig()
	}
	// The scenarios rely on deterministic LRU eviction during warmup;
	// random replacement is covered by its own tests and benches.
	hcfg.L1.Repl = cache.ReplLRU
	h := memsys.New(hcfg)
	var prog = testprog.WrongPathExecuted()
	if progName == "inflight" {
		prog = testprog.WrongPathInflight()
	}
	m := cpu.New(cfg, prog, h, pol)
	m.AttachTracer(tr)
	m.Run(0)
	m.DrainMemory()
	if !m.Halted() {
		t.Fatal("program did not halt")
	}
	if m.Stats.Squashes == 0 {
		t.Fatal("scenario produced no squash")
	}
	return m, h
}

func TestCleanupInvalidatesTransientInstall(t *testing.T) {
	p := New()
	m, h := runScenario(t, p, "executed")
	wrong := testprog.AddrWrong.Line()
	if _, hit := h.L1(0).Probe(wrong); hit {
		t.Fatal("transient install survived cleanup in L1")
	}
	if p.Stats.InvalidationsL1 == 0 {
		t.Fatalf("no L1 invalidations: %+v", p.Stats)
	}
	_ = m
}

func TestCleanupRestoresEvictedVictim(t *testing.T) {
	p := New()
	_, h := runScenario(t, p, "executed")
	// Both victims must be resident again after cleanup.
	for _, a := range []arch.Addr{testprog.AddrVictim1, testprog.AddrVictim2} {
		if _, hit := h.L1(0).Probe(a.Line()); !hit {
			t.Fatalf("victim %v not restored", a)
		}
	}
	if p.Stats.Restores == 0 {
		t.Fatalf("no restores recorded: %+v", p.Stats)
	}
}

// TestCleanupReachesTrace checks that the cleanup records each
// invalidation and each restore, with its latency, in the machine's trace
// ring, that the non-secure baseline records neither, and that tracing
// changes nothing the run measures.
func TestCleanupReachesTrace(t *testing.T) {
	for _, newPol := range []func() cpu.Policy{
		func() cpu.Policy { return New() },
		func() cpu.Policy { return cpu.NonSecure{} },
	} {
		pol := newPol()
		ring := trace.NewRing(4096)
		m, _ := runTracedScenario(t, pol, "executed", ring)
		if untraced, _ := runScenario(t, newPol(), "executed"); m.Stats != untraced.Stats {
			t.Errorf("%s: traced run %+v, untraced %+v", pol.Name(), m.Stats, untraced.Stats)
		}
		invals, restores := ring.Filter(trace.KindCleanupInval), ring.Filter(trace.KindCleanupRestore)
		p, ok := pol.(*CleanupSpec)
		if !ok {
			if len(invals)+len(restores) != 0 {
				t.Errorf("%s: %d cleanup-inval and %d cleanup-restore events, want none", pol.Name(), len(invals), len(restores))
			}
			continue
		}
		if n := uint64(len(invals)); n == 0 || n != p.Stats.InvalidationsL1+p.Stats.InvalidationsL2 {
			t.Errorf("cleanupspec: %d cleanup-inval events for %+v", n, p.Stats)
		}
		if n := uint64(len(restores)); n == 0 || n != p.Stats.Restores {
			t.Errorf("cleanupspec: %d cleanup-restore events for %+v", n, p.Stats)
		}
		for _, e := range restores {
			if e.Arg == 0 {
				t.Errorf("cleanupspec: restore of line %v records no latency", e.Line)
			}
		}
	}
}

func TestNonSecureLeavesTransientState(t *testing.T) {
	// Contrast: the same scenario under the non-secure baseline keeps the
	// transient install and loses a victim.
	_, h := runScenario(t, cpu.NonSecure{}, "executed")
	wrong := testprog.AddrWrong.Line()
	if _, hit := h.L1(0).Probe(wrong); !hit {
		t.Fatal("expected the transient install to survive under non-secure")
	}
	v1Hit := func() bool { _, ok := h.L1(0).Probe(testprog.AddrVictim1.Line()); return ok }()
	v2Hit := func() bool { _, ok := h.L1(0).Probe(testprog.AddrVictim2.Line()); return ok }()
	if v1Hit && v2Hit {
		t.Fatal("expected one victim to have been evicted under non-secure")
	}
}

func TestInflightSquashedFillIsDropped(t *testing.T) {
	p := New()
	m, h := runScenario(t, p, "inflight")
	cold := testprog.AddrCold.Line()
	if h.ProbeLevel(0, cold) != memsys.LevelMem {
		t.Fatal("in-flight transient fill landed despite the squash")
	}
	if m.Stats.SquashedInflight == 0 {
		t.Fatalf("stats: %+v", m.Stats)
	}
	if p.Stats.DroppedInflight == 0 {
		t.Fatalf("policy stats: %+v", p.Stats)
	}
	if h.Stats.DroppedFills == 0 {
		t.Fatalf("hierarchy stats: %+v", h.Stats)
	}
}

func TestNonSecureLandsInflightFill(t *testing.T) {
	_, h := runScenario(t, cpu.NonSecure{}, "inflight")
	cold := testprog.AddrCold.Line()
	if h.ProbeLevel(0, cold) == memsys.LevelMem {
		t.Fatal("non-secure should let the wrong-path fill land")
	}
}

func TestCleanupStallAccounted(t *testing.T) {
	p := New()
	m, _ := runScenario(t, p, "executed")
	if m.Stats.CleanupOpCycles == 0 {
		t.Fatalf("cleanup ops should cost cycles: %+v", m.Stats)
	}
}

func TestCleanupFreeSquashCostsNothing(t *testing.T) {
	p := New()
	m, _ := runScenario(t, p, "inflight")
	// The only squashed load was in flight: no cleanup operations.
	if p.Stats.ExecutedCleaned != 0 {
		t.Fatalf("expected zero executed cleanups: %+v", p.Stats)
	}
	if m.Stats.CleanupOpCycles != 0 {
		t.Fatalf("inflight-only squash must not charge cleanup ops: %+v", m.Stats)
	}
}

func TestConstantTimeCleanupPads(t *testing.T) {
	p := NewWithConfig(Config{ConstantTimeCleanup: 50})
	m, _ := runScenario(t, p, "inflight")
	per := float64(m.Stats.CleanupOpCycles) / float64(m.Stats.Squashes)
	if per < 50 {
		t.Fatalf("constant-time pad not applied: %.1f cycles/squash", per)
	}
}

func TestDisableRestoreAblation(t *testing.T) {
	// The naive invalidation-only design (Section 2.4.1): the transient
	// line is removed but the victim stays missing — the Prime+Probe
	// residue the full design eliminates.
	p := NewWithConfig(Config{DisableRestore: true})
	_, h := runScenario(t, p, "executed")
	if _, hit := h.L1(0).Probe(testprog.AddrWrong.Line()); hit {
		t.Fatal("invalidation should still happen")
	}
	v1Hit := func() bool { _, ok := h.L1(0).Probe(testprog.AddrVictim1.Line()); return ok }()
	v2Hit := func() bool { _, ok := h.L1(0).Probe(testprog.AddrVictim2.Line()); return ok }()
	if v1Hit && v2Hit {
		t.Fatal("with restore disabled a victim must stay evicted")
	}
}

func TestHierarchyConfigKnobs(t *testing.T) {
	hcfg := HierarchyConfig(memsys.DefaultConfig(1))
	if !hcfg.RandomizeL2 || !hcfg.ProtectSpecWindow {
		t.Fatal("CleanupSpec hierarchy must randomize L2 and protect the window")
	}
	h := memsys.New(hcfg)
	if h.L2Indexer() == nil {
		t.Fatal("L2 must use the CEASER indexer")
	}
	if h.L2RT() != 10 {
		t.Fatalf("L2 RT %d, want 10 (8 + 2 encryption)", h.L2RT())
	}
}

func TestStorageOverheadUnder1KB(t *testing.T) {
	// Section 6.6: 32 LQ + 64 L1-MSHR + 64 L2-MSHR entries < 1 KB/core.
	bits := StorageBitsPerCore(32, 64, 64)
	if bytes := bits / 8; bytes >= 1024 {
		t.Fatalf("SEFE storage %d bytes, paper promises < 1KB", bytes)
	}
}

func TestSafeGetSDelayAndRetry(t *testing.T) {
	// A speculative load to a line owned M by another core must be
	// delayed (no transient downgrade) and retried once unsquashable.
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	hcfg := HierarchyConfig(testprog.SmallConfig())
	hcfg.NumCores = 2
	h := memsys.New(hcfg)
	// Core 1 dirties the flag's line.
	remote := arch.Addr(0x7000)
	h.Store(1, remote.Line(), 0)

	// Program: a slow, correctly-predicted branch keeps a younger
	// correct-path load speculative; that load targets the remote-owned
	// line, so its first attempt (GetS-Safe) must fail without touching
	// the remote copy and the retry happens after resolution.
	prog := remoteLoadProgram(remote)
	p := New()
	m := cpu.New(cfg, prog, h, p)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if h.Stats.SafeGetSDelays == 0 {
		t.Fatalf("expected GetS-Safe delays: %+v", h.Stats)
	}
	// After the correct-path retry the remote copy is downgraded.
	if h.L1(1).State(remote.Line()) != arch.Shared {
		t.Fatalf("remote state %v, want S after correct-path GetS", h.L1(1).State(remote.Line()))
	}
	if m.Stats.LoadDelayStalls == 0 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

// remoteLoadProgram: a cold-miss branch condition (slow, actually taken and
// predicted taken) with a speculative load to the remote-owned line on the
// predicted (and correct) path.
func remoteLoadProgram(remote arch.Addr) *isa.Program {
	b := isa.NewBuilder("remote-load")
	flag := arch.Addr(0x9000)
	b.InitData(flag, 1)
	b.Li(3, int64(flag))
	b.Load(4, 3, 0) // slow: cold miss
	// Correctly predicted (not taken both ways): the fall-through load
	// stays on the correct path but is speculative until resolution.
	b.Br(isa.CondEQ, 4, 0, "skip")
	b.Li(5, int64(remote))
	b.Load(6, 5, 0) // speculative until the branch resolves
	b.Halt()
	b.Label("skip")
	b.Halt()
	return b.Build()
}

func TestWindowExtensionAccounting(t *testing.T) {
	// A load that stays speculative for several hundred cycles (branch
	// condition from DRAM) must send keep-alive messages; the paper
	// bounds these at <2% of traffic overall.
	p := New()
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	hcfg := HierarchyConfig(testprog.SmallConfig())
	hcfg.L1.Repl = cache.ReplLRU
	h := memsys.New(hcfg)
	// Correct-path speculative load under a slow branch (the
	// remote-load shape without the remote part).
	b := isa.NewBuilder("window-ext")
	flag := arch.Addr(0x9000)
	b.InitData(flag, 1)
	b.Li(3, int64(flag))
	b.Load(4, 3, 0) // ~110-cycle resolution
	b.Br(isa.CondEQ, 4, 0, "skip")
	b.Li(5, 0xA000)
	b.Load(6, 5, 0) // issues early, commits only after the branch resolves...
	b.Halt()
	b.Label("skip")
	b.Halt()
	m := cpu.New(cfg, b.Build(), h, p)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if p.Stats.LoadsObserved == 0 {
		t.Fatal("no loads observed")
	}
	// The flag load itself commits ~110+ cycles after issue only if it
	// was held up; here the *speculative* load r6 commits after the
	// branch resolves (~110 cycles after its own issue), so at least
	// one extension fires when the period is exceeded. With a 200-cycle
	// period and ~110-cycle windows this program may legitimately send
	// zero; assert the rate is sane rather than nonzero.
	if rate := p.ExtensionRate(); rate > 0.5 {
		t.Fatalf("implausible extension rate %.2f", rate)
	}
}

func TestWindowExtensionsFireOnLongSpeculation(t *testing.T) {
	// Force a speculation window longer than the 200-cycle period: the
	// branch condition needs TWO dependent memory round trips.
	p := New()
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	hcfg := HierarchyConfig(testprog.SmallConfig())
	hcfg.L1.Repl = cache.ReplLRU
	h := memsys.New(hcfg)
	b := isa.NewBuilder("long-window")
	ptr := arch.Addr(0x9000)
	b.InitData(ptr, 0xA000)
	b.InitData(0xA000, 1)
	b.Li(3, int64(ptr))
	b.Load(4, 3, 0) // ~110 cycles: pointer
	b.Load(4, 4, 0) // ~110 more: value (chain)
	b.Br(isa.CondEQ, 4, 0, "skip")
	b.Li(5, 0xB000)
	b.Load(6, 5, 0) // speculative for > 200 cycles
	b.Halt()
	b.Label("skip")
	b.Halt()
	m := cpu.New(cfg, b.Build(), h, p)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if p.Stats.WindowExtensions == 0 {
		t.Fatal("a >200-cycle speculation window must send an extension")
	}
}

func TestConstantTimeCleanupIsInvariant(t *testing.T) {
	// Section 4(b)'s hardening: with padding, a squash that needed real
	// cleanup ops and a squash that needed none charge the same stall,
	// removing the cleanup-duration channel.
	const pad = 60
	stall := func(scenario string) float64 {
		p := NewWithConfig(Config{ConstantTimeCleanup: pad})
		m, _ := runScenario(t, p, scenario)
		return float64(m.Stats.CleanupOpCycles) / float64(m.Stats.Squashes)
	}
	withOps := stall("executed")
	withoutOps := stall("inflight")
	if withOps != withoutOps || withOps != pad {
		t.Fatalf("constant-time stall differs: %v vs %v (want %d)", withOps, withoutOps, pad)
	}
}
