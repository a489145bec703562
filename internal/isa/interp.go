package isa

import (
	"fmt"

	"repro/internal/arch"
)

// Interp is a sequential, in-order reference interpreter for the ISA. It
// executes programs with no speculation, no caches, and no timing — just
// architectural semantics. The CPU test suite runs random programs on both
// the out-of-order machine and this interpreter and requires identical
// architectural results: the strongest evidence that speculation, squashes,
// store forwarding, and cleanup never corrupt architectural state.
//
// RdCycle is the one instruction whose value is timing-dependent; the
// interpreter returns a deterministic counter for it, and differential
// tests must not branch on or store rdcycle results (the random program
// generator guarantees that).
type Interp struct {
	prog *Program
	mem  *Memory
	regs [NumRegs]uint64
	pc   arch.Addr
	// rdcycleCounter stands in for the cycle counter.
	rdcycleCounter uint64
	// Executed counts committed instructions.
	Executed uint64
	halted   bool
}

// NewInterp creates an interpreter with memory initialized from the
// program.
func NewInterp(p *Program) *Interp {
	m := NewMemory()
	m.LoadProgram(p)
	return &Interp{prog: p, mem: m, pc: p.Entry}
}

// Memory exposes the interpreter's functional memory.
func (it *Interp) Memory() *Memory { return it.mem }

// Reg returns the architectural value of register r.
func (it *Interp) Reg(r Reg) uint64 { return it.regs[r] }

// Halted reports whether a halt executed.
func (it *Interp) Halted() bool { return it.halted }

// Step executes one instruction. It returns false once halted.
func (it *Interp) Step() bool {
	if it.halted {
		return false
	}
	in := it.prog.Fetch(it.pc)
	next := it.pc + 1
	write := func(rd Reg, v uint64) {
		if rd != 0 {
			it.regs[rd] = v
		}
	}
	switch in.Op {
	case OpNop, OpFence:
		// no architectural effect
	case OpALU:
		write(in.Rd, in.EvalALU(it.regs[in.Rs1], it.regs[in.Rs2]))
	case OpLoad:
		addr := (it.regs[in.Rs1] + uint64(in.Imm)) &^ 7
		write(in.Rd, it.mem.Read64(arch.Addr(addr)))
	case OpStore:
		addr := (it.regs[in.Rs1] + uint64(in.Imm)) &^ 7
		it.mem.Write64(arch.Addr(addr), it.regs[in.Rs2])
	case OpBranch:
		if in.Cond.Eval(it.regs[in.Rs1], it.regs[in.Rs2]) {
			next = in.Target
		}
	case OpJump:
		next = in.Target
	case OpCall:
		write(LinkReg, uint64(it.pc+1))
		next = in.Target
	case OpRet:
		next = arch.Addr(it.regs[in.Rs1])
	case OpCLFlush:
		// no architectural effect (cache-only)
	case OpRdCycle:
		it.rdcycleCounter += 16
		write(in.Rd, it.rdcycleCounter)
	case OpHalt:
		it.halted = true
		it.Executed++
		return false
	default:
		// The reference interpreter executes every op the assembler emits.
		panic(fmt.Sprintf("isa: interpreter cannot execute %v", in.Op))
	}
	it.Executed++
	it.pc = next
	return true
}

// Run executes at most maxInstructions (0 = until halt). It returns the
// number executed.
func (it *Interp) Run(maxInstructions uint64) uint64 {
	for !it.halted && (maxInstructions == 0 || it.Executed < maxInstructions) {
		if !it.Step() {
			break
		}
	}
	return it.Executed
}
