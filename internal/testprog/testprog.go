// Package testprog builds small canonical programs used by the policy and
// attack test suites: scenarios that reliably produce a mispredicted branch
// with a wrong-path load in a chosen state (executed from L2, or still in
// flight from memory) at squash time.
//
// All scenarios assume the small test hierarchy returned by SmallHierarchy:
// a 512-byte, 2-way L1 (4 sets) over the default 2 MB L2, so that two
// committed loads can evict a third line from an L1 set while it stays in
// the L2.
package testprog

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// Addresses used by the scenarios. With a 4-set L1, lines 0, 4, 8 map to
// set 0 and lines 1, 5, 9 map to set 1.
const (
	AddrVictim1 = arch.Addr(0x000)  // line 0, L1 set 0
	AddrVictim2 = arch.Addr(0x100)  // line 4, L1 set 0
	AddrWrong   = arch.Addr(0x200)  // line 8, L1 set 0: the transient target
	AddrFlag    = arch.Addr(0x040)  // line 1, L1 set 1: branch condition
	AddrFlagEv1 = arch.Addr(0x140)  // line 5, L1 set 1
	AddrFlagEv2 = arch.Addr(0x240)  // line 9, L1 set 1
	AddrCold    = arch.Addr(0x8000) // never touched before the wrong path
	AddrCorrect = arch.Addr(0x4040) // correct-path load target (L1 set 1)
)

// SmallConfig returns the small-hierarchy memsys configuration.
func SmallConfig() memsys.Config {
	cfg := memsys.DefaultConfig(1)
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 512, Ways: 2, Repl: cache.ReplLRU}
	return cfg
}

// WrongPathExecuted builds the "executed transient load" scenario:
//
//  1. Warm AddrWrong into the L2 but not the L1 (load it, then evict it
//     from its L1 set with two victim loads that stay resident).
//  2. Load the branch flag from cold memory (slow, ~110 cycles).
//  3. Branch on the flag: actual not-taken, initial prediction taken.
//  4. Wrong path: load AddrWrong — an L2 hit that completes (~11 cycles)
//     and installs into the L1, evicting one of the victims, long before
//     the branch resolves.
//
// After the squash, CleanupSpec must invalidate AddrWrong from the L1 and
// restore the evicted victim; the non-secure baseline leaves both changes.
func WrongPathExecuted() *isa.Program {
	b := isa.NewBuilder("wrong-path-executed")
	// Phase 1: warm L2 with AddrWrong, keep victims in L1 set 0.
	b.Li(1, int64(AddrWrong))
	b.Load(2, 1, 0)
	b.Li(1, int64(AddrVictim1))
	b.Load(2, 1, 0)
	b.Li(1, int64(AddrVictim2))
	b.Load(2, 1, 0)
	// Drain: a fence keeps later loads from racing ahead of the warmup.
	b.Fence()
	// Phase 2: slow branch condition (cold line, value 1).
	b.InitData(AddrFlag, 1)
	b.Li(3, int64(AddrFlag))
	b.Load(4, 3, 0) // = 1
	// Phase 3: mispredicted branch — actually taken, predicted
	// not-taken (cold counters), so the fall-through is the wrong path.
	b.Br(isa.CondNE, 4, 0, "correct")
	// Wrong path: fast transient load that hits in the L2.
	b.Li(7, int64(AddrWrong))
	b.Load(8, 7, 0)
	b.Nop()
	b.Halt()
	b.Label("correct")
	b.Li(5, int64(AddrCorrect))
	b.Load(6, 5, 0)
	b.Halt()
	return b.Build()
}

// WrongPathInflight builds the "in-flight transient load" scenario: the
// branch condition is an L2 hit (resolves in ~11 cycles) while the wrong
// path launches a cold load (~111 cycles), so the squash arrives while the
// transient miss is still in flight and its fill must be dropped
// (Section 3.3, the "inflight" class of Figure 15).
func WrongPathInflight() *isa.Program {
	b := isa.NewBuilder("wrong-path-inflight")
	// Warm the flag into L2 only: load it, then evict from L1 set 1.
	b.Li(1, int64(AddrFlag))
	b.Load(2, 1, 0)
	b.Li(1, int64(AddrFlagEv1))
	b.Load(2, 1, 0)
	b.Li(1, int64(AddrFlagEv2))
	b.Load(2, 1, 0)
	b.Fence()
	// Branch condition: L2 hit (~11 cycles), value 1 => actually taken,
	// predicted not-taken, so the fall-through is the wrong path.
	b.InitData(AddrFlag, 1)
	b.Li(3, int64(AddrFlag))
	b.Load(4, 3, 0) // = 1
	b.Br(isa.CondNE, 4, 0, "correct")
	// Wrong path: cold load, still in flight at squash time.
	b.Li(7, int64(AddrCold))
	b.Load(8, 7, 0)
	b.Nop()
	b.Halt()
	b.Label("correct")
	b.Halt()
	return b.Build()
}

// SpecPointerChase builds a dependent-load chain of n steps starting at
// base (each loaded value is the address of the next load) behind a
// data-dependent guard branch that resolves several cycles *after* each
// load returns (through a multiply chain), so the next iteration's load
// always issues speculatively. It is the canonical workload for
// separating the policies: non-secure issues the loads freely, delay-all
// stalls them, InvisiSpec-Revised forwards their values but pays updates,
// and InvisiSpec-Initial additionally defers the value to the visibility
// point.
func SpecPointerChase(n int, base arch.Addr) *isa.Program {
	b := isa.NewBuilder("spec-pointer-chase")
	for i := 0; i < n; i++ {
		b.InitData(base+arch.Addr(i*64), uint64(base)+uint64((i+1)*64))
	}
	b.Li(1, int64(base))
	b.Li(2, int64(n))
	b.Li(6, 1)
	b.Label("loop")
	b.Load(1, 1, 0)
	// Guard: (ptr*ptr)*(ptr*ptr) is always >= 1, so the branch is never
	// taken — but it resolves ~7 cycles after the load's data returns,
	// keeping the next load speculative.
	b.Alu(isa.AluMul, 5, 1, 1)
	b.Alu(isa.AluMul, 5, 5, 5)
	b.Br(isa.CondLTU, 5, 6, "exit")
	b.AddI(2, 2, -1)
	b.Br(isa.CondNE, 2, 0, "loop")
	b.Label("exit")
	b.Halt()
	return b.Build()
}
