package core

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/xrand"
)

// TestUndoInvariantProperty checks the paper's core invariant directly at
// the memory-system level: after speculative loads install and evict lines
// and the cleanup runs (invalidate + restore in reverse fill order), the L1
// tag state is exactly what it was before the speculation, and the L2 holds
// no line it did not hold before.
func TestUndoInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		cfg := memsys.DefaultConfig(1)
		// Small L1 with deterministic LRU so evictions are frequent.
		cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 2 << 10, Ways: 2, Repl: cache.ReplLRU}
		cfg.RandomizeL2 = true
		cfg.Seed = seed
		h := memsys.New(cfg)

		now := arch.Cycle(0)
		drain := func() {
			for h.PendingLen() > 0 {
				now++
				h.Tick(now)
			}
		}
		// Warm with committed loads.
		lines := make([]arch.LineAddr, 40)
		for i := range lines {
			lines[i] = arch.LineAddr(rng.Intn(256))
			h.Load(0, lines[i], now, uint64(i), memsys.LoadOpts{}, nil, 0)
			now += 3
		}
		drain()

		beforeL1 := h.L1(0).SnapshotTags()
		beforeL2 := h.L2().SnapshotTags()

		// Speculative burst to fresh and overlapping lines.
		type rec struct {
			line arch.LineAddr
			sefe cache.SEFE
			ord  uint64
		}
		var recs []*rec
		for i := 0; i < 12; i++ {
			line := arch.LineAddr(1000 + rng.Intn(64))
			r := &rec{line: line}
			h.Load(0, line, now, uint64(100+i), memsys.LoadOpts{Spec: true}, func(tx *memsys.Txn) {
				r.sefe = tx.SEFE
				r.ord = h.FillOrder(0)
			}, 0)
			recs = append(recs, r)
			now += 2
		}
		drain()

		// Cleanup via the policy's own batch algorithm.
		pol := New()
		var batch []CleanupOp
		for _, r := range recs {
			if r.sefe.L1Fill || r.sefe.L2Fill {
				batch = append(batch, CleanupOp{Line: r.line, SEFE: r.sefe, FillOrder: r.ord})
			}
		}
		pol.CleanupBatch(h, 0, batch, nil, now)

		afterL1 := h.L1(0).SnapshotTags()
		if len(afterL1) != len(beforeL1) {
			t.Logf("seed %d: L1 size %d -> %d", seed, len(beforeL1), len(afterL1))
			return false
		}
		for l := range beforeL1 {
			if !afterL1[l] {
				t.Logf("seed %d: L1 lost %v", seed, l)
				return false
			}
		}
		// The L2 may have lost victims (benign randomized evictions) but
		// must not have gained transient lines.
		afterL2 := h.L2().SnapshotTags()
		for l := range afterL2 {
			if !beforeL2[l] {
				t.Logf("seed %d: L2 gained transient %v", seed, l)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- failure injection ---

// TestEpochWraparound drives far more than 256 squashes through one
// machine, wrapping the modeled 8-bit EpochID many times, and checks
// architectural correctness against the reference interpreter.
func TestEpochWraparound(t *testing.T) {
	b := isa.NewBuilder("epoch-wrap")
	noise := arch.Addr(0x1_0000)
	for i := 0; i < 512; i++ {
		b.InitData(noise+arch.Addr(i*8), xrand.Hash64(uint64(i)))
	}
	b.Li(1, 700) // iterations: enough for > 300 squashes
	b.Li(2, int64(noise))
	b.Li(9, 0) // accumulator
	b.Label("loop")
	// Random-direction branch on loaded data.
	b.Alu(isa.AluMix, 3, 1, 1)
	b.AluI(isa.AluAnd, 3, 3, 0xFF8)
	b.Add(3, 2, 3)
	b.Load(4, 3, 0)
	b.AluI(isa.AluAnd, 5, 4, 1)
	b.Br(isa.CondNE, 5, 0, "odd")
	b.AddI(9, 9, 1)
	b.Jmp("join")
	b.Label("odd")
	b.AddI(9, 9, 3)
	b.Label("join")
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	prog := b.Build()

	ref := isa.NewInterp(prog)
	ref.Run(0)

	h := memsys.New(HierarchyConfig(memsys.DefaultConfig(1)))
	ccfg := cpu.DefaultConfig()
	ccfg.MaxCycles = 50_000_000
	m := cpu.New(ccfg, prog, h, New())
	st := m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if st.Squashes < 256 {
		t.Fatalf("only %d squashes; epoch wraparound not exercised", st.Squashes)
	}
	if m.Reg(9) != ref.Reg(9) {
		t.Fatalf("accumulator %d, interpreter says %d", m.Reg(9), ref.Reg(9))
	}
}

// TestMSHRExhaustionPressure shrinks the L1 MSHR to 2 entries and issues a
// burst of independent cold loads: the machine must throttle and still
// produce correct results.
func TestMSHRExhaustionPressure(t *testing.T) {
	b := isa.NewBuilder("mshr-pressure")
	b.Li(9, 0)
	for i := 0; i < 24; i++ {
		b.Li(1, int64(0x2_0000+i*4096)) // distinct lines and sets
		b.Load(isa.Reg(2), 1, 0)
		b.Add(9, 9, 2)
		b.InitData(arch.Addr(0x2_0000+i*4096), uint64(i+1))
	}
	b.Halt()
	prog := b.Build()

	ref := isa.NewInterp(prog)
	ref.Run(0)

	hcfg := memsys.DefaultConfig(1)
	hcfg.L1MSHRs = 2
	hcfg.L2MSHRs = 2
	h := memsys.New(hcfg)
	ccfg := cpu.DefaultConfig()
	ccfg.MaxCycles = 5_000_000
	m := cpu.New(ccfg, prog, h, New())
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt under MSHR pressure")
	}
	if m.Reg(9) != ref.Reg(9) {
		t.Fatalf("checksum %d, want %d", m.Reg(9), ref.Reg(9))
	}
	if h.L1MSHR(0).Stats.Full == 0 {
		t.Fatal("the MSHR was never full; pressure not exercised")
	}
}

// TestQueuePressure fills the LQ and SQ beyond their capacity with
// back-to-back memory operations.
func TestQueuePressure(t *testing.T) {
	b := isa.NewBuilder("queue-pressure")
	base := arch.Addr(0x3_0000)
	b.Li(1, int64(base))
	b.Li(9, 0)
	for i := 0; i < 50; i++ { // > LQ/SQ size of 32
		b.Store(1, int64(i*8), 9)
		b.Load(isa.Reg(3), 1, int64(i*8))
		b.Add(9, 9, 3)
		b.AddI(9, 9, 1)
	}
	b.Halt()
	prog := b.Build()
	ref := isa.NewInterp(prog)
	ref.Run(0)

	h := memsys.New(memsys.DefaultConfig(1))
	ccfg := cpu.DefaultConfig()
	ccfg.MaxCycles = 5_000_000
	m := cpu.New(ccfg, prog, h, New())
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt under queue pressure")
	}
	if m.Reg(9) != ref.Reg(9) {
		t.Fatalf("checksum %d, want %d", m.Reg(9), ref.Reg(9))
	}
}

// TestDeepCallChain nests calls beyond the 16-entry RAS (spilling the link
// register to memory, as compiled code would), so return predictions
// mispredict and squash — architectural results must still be exact.
func TestDeepCallChain(t *testing.T) {
	const depth = 24
	b := isa.NewBuilder("deep-calls")
	sp := arch.Addr(0x4_0000)
	b.Li(20, int64(sp)) // stack pointer
	b.Li(9, 0)
	b.Call(labelOf(0))
	b.Halt()
	for d := 0; d < depth; d++ {
		b.Label(labelOf(d))
		// push link
		b.Store(20, 0, 31)
		b.AddI(20, 20, 8)
		b.AddI(9, 9, 1)
		if d+1 < depth {
			b.Call(labelOf(d + 1))
		}
		// pop link
		b.AddI(20, 20, -8)
		b.Load(31, 20, 0)
		b.Ret()
	}
	prog := b.Build()
	ref := isa.NewInterp(prog)
	ref.Run(0)

	h := memsys.New(memsys.DefaultConfig(1))
	ccfg := cpu.DefaultConfig()
	ccfg.MaxCycles = 5_000_000
	m := cpu.New(ccfg, prog, h, New())
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if m.Reg(9) != uint64(depth) || m.Reg(9) != ref.Reg(9) {
		t.Fatalf("depth counter %d, want %d", m.Reg(9), depth)
	}
}

func labelOf(d int) string { return "fn" + string(rune('A'+d)) }
