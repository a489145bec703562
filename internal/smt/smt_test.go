package smt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
)

const (
	addrX     = arch.Addr(0x200) // the victim's transient target (L1 set 8 @512B L1)
	addrChain = arch.Addr(0x9000)
	addrRes   = arch.Addr(0x20_0000)
)

func smtHier(protect bool, partitionWays int) memsys.Config {
	cfg := memsys.DefaultConfig(1)
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, Repl: cache.ReplLRU,
		PartitionWays: partitionWays}
	cfg.ProtectSpecWindow = protect
	cfg.RandomizeL2 = true
	return cfg
}

// victimProgram warms addrX into the L2 (evicting it from the L1 through a
// clflush-free route is unnecessary: it loads it transiently later from
// cold/L2), then opens a ~2-memory-round-trip speculation window whose
// wrong path installs addrX.
func victimProgram() *isa.Program {
	b := isa.NewBuilder("smt-victim")
	// Long branch-resolution chain: two dependent DRAM loads.
	b.InitData(addrChain, uint64(addrChain)+0x100)
	b.InitData(addrChain+0x100, 1)
	b.Li(3, int64(addrChain))
	b.Load(4, 3, 0) // ~110 cycles
	b.Load(4, 4, 0) // ~110 more (dependent)
	b.Br(isa.CondNE, 4, 0, "correct")
	// Wrong path (predicted): install addrX speculatively.
	b.Li(7, int64(addrX))
	b.Load(8, 7, 0)
	b.Nop()
	b.Halt()
	b.Label("correct")
	b.Halt()
	return b.Build()
}

// attackerProgram delays ~150 cycles (inside the victim's window), then
// times a load of addrX and stores the latency to addrRes.
func attackerProgram() *isa.Program {
	b := isa.NewBuilder("smt-attacker")
	b.Li(1, 3)
	for i := 0; i < 50; i++ { // ~150 cycles of dependent multiplies
		b.Alu(isa.AluMul, 1, 1, 1)
	}
	b.Li(6, int64(addrX))
	b.Fence()
	b.RdCycle(8)
	b.Load(9, 6, 0)
	b.RdCycle(11)
	b.Alu(isa.AluSub, 12, 11, 8)
	b.Li(14, int64(addrRes))
	b.Store(14, 0, 12)
	b.Halt()
	return b.Build()
}

func runWindowProbe(t *testing.T, protect bool) (latency uint64) {
	t.Helper()
	p := NewPair(Config{
		Hierarchy: smtHier(protect, 0),
		Core:      cpu.DefaultConfig(),
		ProgA:     victimProgram(),
		ProgB:     attackerProgram(),
		PolA:      core.New(),
		PolB:      core.New(),
	})
	if !p.Run(2_000_000) {
		t.Fatal("SMT pair did not halt")
	}
	return p.B.Memory().Read64(addrRes)
}

func TestSMTWindowProbeProtected(t *testing.T) {
	unprotected := runWindowProbe(t, false)
	protected := runWindowProbe(t, true)
	// Without protection the sibling hits the speculatively installed
	// line at L1 latency; with Section 3.6's protection the hit is
	// serviced as a dummy miss (backing-store latency).
	if unprotected > 15 {
		t.Fatalf("unprotected probe latency %d; expected an L1-speed hit (is the window aligned?)", unprotected)
	}
	if protected < 50 {
		t.Fatalf("protected probe latency %d; expected dummy-miss servicing", protected)
	}
}

// TestSMTNoMoPartitioning: the attacker primes its own way-partition of a
// set; a burst of victim installs to the same set must not evict any
// attacker line when NoMo partitioning is on — and must evict some when it
// is off.
func TestSMTNoMoPartitioning(t *testing.T) {
	const l1Sets = 128
	set := 5
	primeLines := func(n, salt int) []arch.Addr {
		out := make([]arch.Addr, n)
		for j := 0; j < n; j++ {
			out[j] = arch.Addr((uint64(set) + uint64(j+salt+100)*l1Sets) * arch.LineBytes)
		}
		return out
	}

	attacker := func(lines []arch.Addr) *isa.Program {
		b := isa.NewBuilder("nomo-attacker")
		for _, a := range lines {
			b.Li(2, int64(a))
			b.Load(3, 2, 0)
		}
		b.Fence()
		// Wait for the victim's install burst.
		b.Li(1, 3)
		for i := 0; i < 170; i++ {
			b.Alu(isa.AluMul, 1, 1, 1)
		}
		// Probe the primed lines; accumulate total latency.
		b.Li(20, 0)
		for _, a := range lines {
			b.Li(6, int64(a))
			b.Fence()
			b.RdCycle(8)
			b.Load(9, 6, 0)
			b.RdCycle(11)
			b.Alu(isa.AluSub, 12, 11, 8)
			b.Add(20, 20, 12)
		}
		b.Li(14, int64(addrRes))
		b.Store(14, 0, 20)
		b.Halt()
		return b.Build()
	}
	victim := func(lines []arch.Addr) *isa.Program {
		b := isa.NewBuilder("nomo-victim")
		// Small delay so the attacker's priming settles first.
		b.Li(1, 3)
		for i := 0; i < 30; i++ {
			b.Alu(isa.AluMul, 1, 1, 1)
		}
		for _, a := range lines {
			b.Li(2, int64(a))
			b.Load(3, 2, 0)
		}
		b.Fence()
		b.Halt()
		return b.Build()
	}

	run := func(partitionWays int) uint64 {
		nPrime := 8
		if partitionWays > 0 {
			nPrime = partitionWays // the attacker owns only its partition
		}
		p := NewPair(Config{
			Hierarchy: smtHier(true, partitionWays),
			Core:      cpu.DefaultConfig(),
			ProgA:     victim(primeLines(10, 50)), // 10 victim installs, same set
			ProgB:     attacker(primeLines(nPrime, 0)),
			PolA:      core.New(),
			PolB:      core.New(),
		})
		if !p.Run(2_000_000) {
			t.Fatal("pair did not halt")
		}
		// Normalize per probed line.
		return p.B.Memory().Read64(addrRes) / uint64(nPrime)
	}

	shared := run(0) // no partitioning: victim evicts attacker lines
	nomo := run(4)   // NoMo: 4 ways per thread
	if shared < 10 {
		t.Fatalf("unpartitioned probe avg %d; expected eviction misses", shared)
	}
	if nomo > 9 {
		t.Fatalf("NoMo probe avg %d; attacker lines must survive the victim burst", nomo)
	}
}

// TestSMTPairIndependence: two threads with data dependencies confined to
// their own programs must both compute correct results while sharing the
// hierarchy.
func TestSMTPairIndependence(t *testing.T) {
	progFor := func(seed uint64) *isa.Program {
		return isa.RandomProgram(seed, isa.GenConfig{})
	}
	refA := isa.NewInterp(progFor(5))
	refA.Run(0)
	refB := isa.NewInterp(progFor(6))
	refB.Run(0)

	p := NewPair(Config{
		Hierarchy: smtHier(true, 4),
		Core:      cpu.DefaultConfig(),
		ProgA:     progFor(5),
		ProgB:     progFor(6),
		PolA:      core.New(),
		PolB:      core.New(),
	})
	if !p.Run(10_000_000) {
		t.Fatal("pair did not halt")
	}
	for r := isa.Reg(1); r < 10; r++ {
		if p.A.Reg(r) != refA.Reg(r) {
			t.Errorf("thread A r%d = %#x, want %#x", r, p.A.Reg(r), refA.Reg(r))
		}
		if p.B.Reg(r) != refB.Reg(r) {
			t.Errorf("thread B r%d = %#x, want %#x", r, p.B.Reg(r), refB.Reg(r))
		}
	}
}

// TestCrossCoreWindowProbe mounts the paper's CrossCore adversary: the
// victim on core 0 speculatively installs a line (which also fills the
// shared L2); the attacker on core 1 misses its own L1 and would hit the
// speculative L2 copy inside the window. With protection on, the L2 copy is
// spec-marked and the access is serviced at memory latency.
func TestCrossCoreWindowProbe(t *testing.T) {
	run := func(protect bool) uint64 {
		hcfg := memsys.DefaultConfig(2)
		hcfg.ProtectSpecWindow = protect
		hcfg.RandomizeL2 = true
		p := NewCrossCorePair(Config{
			Hierarchy: hcfg,
			Core:      cpu.DefaultConfig(),
			ProgA:     crossVictim(),
			ProgB:     crossAttacker(),
			PolA:      core.New(),
			PolB:      core.New(),
		})
		if !p.Run(2_000_000) {
			t.Fatal("pair did not halt")
		}
		return p.B.Memory().Read64(addrRes)
	}
	unprotected := run(false)
	protected := run(true)
	// Unprotected: the attacker's L1 miss hits the transient L2 copy
	// (~L2 latency). Protected: the L2 hit path still exists, but the
	// spec-marked copy pushes the dummy-miss to memory latency.
	if unprotected > 40 {
		t.Fatalf("unprotected cross-core probe %d; expected an L2-speed hit", unprotected)
	}
	if protected < 60 {
		t.Fatalf("protected cross-core probe %d; expected memory-speed dummy miss", protected)
	}
}

// crossVictim opens a long window whose wrong path load misses to memory,
// filling the shared L2 speculatively.
func crossVictim() *isa.Program {
	b := isa.NewBuilder("cross-victim")
	b.InitData(addrChain, uint64(addrChain)+0x100)
	b.InitData(addrChain+0x100, 1)
	b.Li(3, int64(addrChain))
	b.Load(4, 3, 0)
	b.Load(4, 4, 0) // ~220-cycle window
	b.Br(isa.CondNE, 4, 0, "correct")
	b.Li(7, int64(addrX))
	b.Load(8, 7, 0) // fills L1(core0) + shared L2 speculatively
	b.Nop()
	b.Halt()
	b.Label("correct")
	b.Halt()
	return b.Build()
}

// crossAttacker waits past the victim's transient fill (~130 cycles), then
// times its own (L1-missing) load of the same line.
func crossAttacker() *isa.Program {
	b := isa.NewBuilder("cross-attacker")
	b.Li(1, 3)
	for i := 0; i < 60; i++ {
		b.Alu(isa.AluMul, 1, 1, 1)
	}
	b.Li(6, int64(addrX))
	b.Fence()
	b.RdCycle(8)
	b.Load(9, 6, 0)
	b.RdCycle(11)
	b.Alu(isa.AluSub, 12, 11, 8)
	b.Li(14, int64(addrRes))
	b.Store(14, 0, 12)
	b.Halt()
	return b.Build()
}
