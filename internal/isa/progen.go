package isa

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/xrand"
)

// GenConfig shapes RandomProgram's output.
type GenConfig struct {
	// Segments is the number of straight-line segments (default 12).
	Segments int
	// OpsPerSegment bounds the random operations per segment (default 8).
	OpsPerSegment int
	// MemWindowWords is the size of the load/store window in 8-byte
	// words; a small window (default 64) makes store-to-load forwarding,
	// disambiguation blocks, and memory-order squashes frequent.
	MemWindowWords int
}

// RandomProgram generates a *halting* random program that exercises ALU
// chains, loads and stores over a small aliasing window, forward branches
// (taken and not), bounded loops, and call/ret — the differential-testing
// workhorse: the out-of-order machine under every security policy must
// produce exactly the interpreter's architectural results.
//
// The generator never emits RdCycle (its value is timing-dependent) and
// never lets wrong-path-only state escape: every architectural value is a
// deterministic function of the program alone.
func RandomProgram(seed uint64, cfg GenConfig) *Program {
	if cfg.Segments == 0 {
		cfg.Segments = 12
	}
	if cfg.OpsPerSegment == 0 {
		cfg.OpsPerSegment = 8
	}
	if cfg.MemWindowWords == 0 {
		cfg.MemWindowWords = 64
	}
	rng := xrand.New(seed)
	b := NewBuilder(fmt.Sprintf("random-%d", seed))

	const memBase = int64(0x1000)
	mask := int64(cfg.MemWindowWords-1) * 8 // e.g. 63*8 = 0x1F8

	dataRegs := []Reg{1, 2, 3, 4, 5, 6, 7, 8, 9}
	reg := func() Reg { return dataRegs[rng.Intn(len(dataRegs))] }
	const rTmp, rBase, rLoop = Reg(18), Reg(19), Reg(25)

	// Seed data registers and the memory window with random values.
	for _, r := range dataRegs {
		b.Li(r, int64(rng.Uint32()))
	}
	b.Li(rBase, memBase)
	for w := 0; w < cfg.MemWindowWords; w++ {
		b.InitData(arch.Addr(memBase+int64(w*8)), rng.Uint64())
	}

	alukinds := []ALUKind{AluAdd, AluSub, AluAnd, AluOr, AluXor, AluShl, AluShr, AluMul, AluMix}
	conds := []Cond{CondEQ, CondNE, CondLTU, CondGEU, CondLT, CondGE}

	// emitAddr computes rTmp = rBase + (src & mask), an address inside
	// the aliasing window.
	emitAddr := func(src Reg) {
		b.AluI(AluAnd, rTmp, src, mask&^7)
		b.Add(rTmp, rBase, rTmp)
	}
	emitOp := func(depth int) {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // ALU
			k := alukinds[rng.Intn(len(alukinds))]
			if rng.Bool(0.4) {
				b.AluI(k, reg(), reg(), int64(rng.Uint32()&0xFFFF))
			} else {
				b.Alu(k, reg(), reg(), reg())
			}
		case 4, 5, 6: // load
			emitAddr(reg())
			b.Load(reg(), rTmp, 0)
		case 7, 8: // store
			emitAddr(reg())
			b.Store(rTmp, 0, reg())
		case 9: // fence (rare)
			if depth == 0 && rng.Bool(0.3) {
				b.Fence()
			} else {
				b.Nop()
			}
		}
	}

	var subroutines []uint64 // seeds for subroutine bodies
	for seg := 0; seg < cfg.Segments; seg++ {
		nOps := 1 + rng.Intn(cfg.OpsPerSegment)
		for i := 0; i < nOps; i++ {
			emitOp(0)
		}
		switch {
		case rng.Bool(0.4):
			// Bounded loop: 2-5 iterations of a small body.
			iters := 2 + rng.Intn(4)
			lbl := fmt.Sprintf("seg%d_loop", seg)
			b.Li(rLoop, int64(iters))
			b.Label(lbl)
			for i := 0; i < 1+rng.Intn(3); i++ {
				emitOp(1)
			}
			b.AddI(rLoop, rLoop, -1)
			b.Br(CondNE, rLoop, 0, lbl)
		case rng.Bool(0.5):
			// Forward branch over a few instructions; the skipped
			// code is real (and becomes wrong-path fodder when the
			// branch mispredicts).
			lbl := fmt.Sprintf("seg%d_skip", seg)
			b.Br(conds[rng.Intn(len(conds))], reg(), reg(), lbl)
			for i := 0; i < 1+rng.Intn(3); i++ {
				emitOp(1)
			}
			b.Label(lbl)
		case rng.Bool(0.6):
			fn := fmt.Sprintf("fn%d", len(subroutines))
			subroutines = append(subroutines, rng.Uint64())
			b.Call(fn)
		}
	}
	b.Halt()

	// Subroutine bodies (single call depth; the link register is live
	// only between call and ret).
	for i, s := range subroutines {
		sub := xrand.New(s)
		b.Label(fmt.Sprintf("fn%d", i))
		for j := 0; j < 1+sub.Intn(4); j++ {
			switch sub.Intn(3) {
			case 0:
				b.Alu(alukinds[sub.Intn(len(alukinds))], dataRegs[sub.Intn(len(dataRegs))],
					dataRegs[sub.Intn(len(dataRegs))], dataRegs[sub.Intn(len(dataRegs))])
			case 1:
				b.AluI(AluAnd, rTmp, dataRegs[sub.Intn(len(dataRegs))], mask&^7)
				b.Add(rTmp, rBase, rTmp)
				b.Load(dataRegs[sub.Intn(len(dataRegs))], rTmp, 0)
			case 2:
				b.AluI(AluAnd, rTmp, dataRegs[sub.Intn(len(dataRegs))], mask&^7)
				b.Add(rTmp, rBase, rTmp)
				b.Store(rTmp, 0, dataRegs[sub.Intn(len(dataRegs))])
			}
		}
		b.Ret()
	}
	return b.Build()
}
