package invisispec

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/testprog"
)

func runProg(t *testing.T, pol cpu.Policy, prog string) (*cpu.Machine, *memsys.Hierarchy) {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	hcfg := testprog.SmallConfig()
	hcfg.L1.Repl = cache.ReplLRU
	h := memsys.New(hcfg)
	p := testprog.WrongPathExecuted()
	if prog == "inflight" {
		p = testprog.WrongPathInflight()
	}
	m := cpu.New(cfg, p, h, pol)
	m.Run(0)
	m.DrainMemory()
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	return m, h
}

func TestInvisibleWrongPathLeavesNoTrace(t *testing.T) {
	for _, mode := range []Mode{Initial, Revised} {
		pol := New(mode)
		m, h := runProg(t, pol, "executed")
		if m.Stats.Squashes == 0 {
			t.Fatal("no squash")
		}
		// The transient load completed invisibly: the line must not
		// have been promoted into the L1.
		if _, hit := h.L1(0).Probe(testprog.AddrWrong.Line()); hit {
			t.Fatalf("%v: wrong-path line reached the L1", mode)
		}
		// And both victims stay resident (nothing was evicted).
		for _, a := range []uint64{uint64(testprog.AddrVictim1), uint64(testprog.AddrVictim2)} {
			if _, hit := h.L1(0).Probe(testprog.AddrVictim1.Line()); !hit {
				t.Fatalf("%v: victim %#x evicted by an invisible load", mode, a)
			}
		}
	}
}

// TestCorrectPathSpecLoadUpdatesCacheAtCommit runs a pointer chase whose
// loads after the first issue behind an unresolved guard branch, so
// invisibly, and all commit: each one's line must reach the L1, which only
// its commit-time update can have put there.
func TestCorrectPathSpecLoadUpdatesCacheAtCommit(t *testing.T) {
	const n, base = 8, 0x10000
	pol := New(Revised)
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	h := memsys.New(memsys.DefaultConfig(1))
	m := cpu.New(cfg, testprog.SpecPointerChase(n, base), h, pol)
	m.Run(0)
	m.DrainMemory()
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if pol.Stats.InvisibleLoads == 0 || pol.Stats.Updates == 0 {
		t.Fatalf("no invisible load committed with an update: %+v", pol.Stats)
	}
	for i := 0; i < n; i++ {
		line := arch.Addr(base + i*arch.LineBytes).Line()
		if _, hit := h.L1(0).Probe(line); !hit {
			t.Errorf("load %d: line %v not in the L1 after commit", i, line)
		}
	}
}

func TestUpdateTrafficCounted(t *testing.T) {
	// A loop with a predictable branch and loads inside: the loads issue
	// speculatively (branch unresolved) but commit, forcing updates.
	pol := New(Revised)
	cfg := cpu.DefaultConfig()
	cfg.MaxCycles = 2_000_000
	h := memsys.New(testprog.SmallConfig())
	prog := testprog.SpecPointerChase(50, 0x10000)
	m := cpu.New(cfg, prog, h, pol)
	m.Run(0)
	if pol.Stats.Updates == 0 {
		t.Fatalf("expected update accesses: %+v", pol.Stats)
	}
	if h.Traffic.Update == 0 || h.Traffic.Invisible == 0 {
		t.Fatalf("traffic: %+v", h.Traffic)
	}
	_ = m
}

func TestInitialSlowerThanRevisedOnDependentChain(t *testing.T) {
	run := func(pol cpu.Policy) uint64 {
		cfg := cpu.DefaultConfig()
		cfg.MaxCycles = 10_000_000
		h := memsys.New(memsys.DefaultConfig(1))
		m := cpu.New(cfg, testprog.SpecPointerChase(200, 0x20000), h, pol)
		st := m.Run(0)
		return st.Cycles
	}
	base := run(cpu.NonSecure{})
	revised := run(New(Revised))
	initial := run(New(Initial))
	if revised <= base {
		t.Fatalf("revised (%d) should be slower than non-secure (%d)", revised, base)
	}
	if initial <= revised {
		t.Fatalf("initial (%d) should be slower than revised (%d): value propagation is deferred", initial, revised)
	}
}

func TestSquashCostsNothingBeyondRedirect(t *testing.T) {
	pol := New(Revised)
	m, _ := runProg(t, pol, "executed")
	if m.Stats.CleanupOpCycles != 0 || m.Stats.InflightWaitCycles != 0 {
		t.Fatalf("InvisiSpec squashes must not charge cleanup: %+v", m.Stats)
	}
}

func TestModeNames(t *testing.T) {
	if New(Initial).Name() != "invisispec-initial" || New(Revised).Name() != "invisispec-revised" {
		t.Fatal("names wrong")
	}
}
