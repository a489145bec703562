// Package isa defines the tiny RISC-style instruction set the simulated
// out-of-order core executes, a functional data-memory model, and a
// label-based program builder used by the synthetic workload generator and
// the attack proof-of-concepts.
//
// The ISA is deliberately minimal — just enough to express the paper's
// workloads and the Spectre v1 PoC with real data-dependent control flow:
// ALU ops, 8-byte loads/stores, conditional branches, calls/returns,
// clflush, fences, a serializing cycle-counter read (the stand-in for
// rdtscp), and halt. PCs are instruction indices (not byte addresses).
package isa

import (
	"fmt"

	"repro/internal/arch"
)

// NumRegs is the architectural register count. Register 0 is hard-wired to
// zero, RISC-style.
const NumRegs = 32

// LinkReg is the register Call writes its return address to and Ret reads
// its target from.
const LinkReg Reg = 31

// Reg is an architectural register number.
type Reg uint8

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	OpALU
	OpLoad    // rd = mem64[rs1 + imm]
	OpStore   // mem64[rs1 + imm] = rs2
	OpBranch  // if cond(rs1, rs2): pc = Target else pc+1
	OpJump    // pc = Target
	OpCall    // push(pc+1); pc = Target
	OpRet     // pc = pop()
	OpCLFlush // flush cache line at rs1 + imm (ordered, commit-time)
	OpFence   // younger loads may not issue until this commits
	OpRdCycle // rd = current cycle; serializing (executes at ROB head)
	OpHalt    // stop the program (takes effect at commit)
)

func (o Op) String() string {
	names := [...]string{"nop", "alu", "load", "store", "branch", "jump",
		"call", "ret", "clflush", "fence", "rdcycle", "halt"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMem reports whether the op accesses the data cache.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore || o == OpCLFlush }

// IsCtrl reports whether the op changes control flow.
func (o Op) IsCtrl() bool {
	return o == OpBranch || o == OpJump || o == OpCall || o == OpRet
}

// ALUKind selects the ALU operation.
type ALUKind uint8

// ALU operations. Mix applies a strong 64-bit hash (xrand.Hash64); the
// workload generator uses it to synthesize well-distributed pseudo-random
// addresses with a single data-dependent instruction.
const (
	AluAdd ALUKind = iota
	AluSub
	AluAnd
	AluOr
	AluXor
	AluShl
	AluShr
	AluMul
	AluMix
)

// Latency returns the execution latency of the ALU op in cycles.
func (k ALUKind) Latency() arch.Cycle {
	if k == AluMul || k == AluMix {
		return 3
	}
	return 1
}

// Cond is a branch condition.
type Cond uint8

// Branch conditions (comparisons of rs1 against rs2).
const (
	CondEQ Cond = iota
	CondNE
	CondLTU // unsigned <
	CondGEU // unsigned >=
	CondLT  // signed <
	CondGE  // signed >=
)

// Eval evaluates the condition on two register values.
func (c Cond) Eval(a, b uint64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLTU:
		return a < b
	case CondGEU:
		return a >= b
	case CondLT:
		return int64(a) < int64(b)
	case CondGE:
		return int64(a) >= int64(b)
	}
	// Unreachable for assembled programs: the switch covers the enum.
	panic(fmt.Sprintf("isa: bad cond %d", c))
}

// Inst is one decoded instruction.
type Inst struct {
	Op     Op
	Alu    ALUKind
	Cond   Cond
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	UseImm bool      // ALU second operand is Imm rather than Rs2
	Target arch.Addr // branch/jump/call target (instruction index)
}

// EvalALU computes the ALU result for source values a and b.
func (in Inst) EvalALU(a, b uint64) uint64 {
	if in.UseImm {
		b = uint64(in.Imm)
	}
	switch in.Alu {
	case AluAdd:
		return a + b
	case AluSub:
		return a - b
	case AluAnd:
		return a & b
	case AluOr:
		return a | b
	case AluXor:
		return a ^ b
	case AluShl:
		return a << (b & 63)
	case AluShr:
		return a >> (b & 63)
	case AluMul:
		return a * b
	case AluMix:
		return hash64(a + b)
	}
	// Unreachable for assembled programs: the switch covers the enum.
	panic(fmt.Sprintf("isa: bad alu %d", in.Alu))
}

// hash64 is the same mix as xrand.Hash64, duplicated to keep isa a leaf
// package with respect to xrand (so either can evolve independently).
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// Program is a complete executable: code, an entry point, and initial data
// memory contents.
type Program struct {
	Name  string
	Code  []Inst
	Entry arch.Addr
	// Data holds initial memory contents (8-byte aligned addresses).
	Data map[arch.Addr]uint64
}

// Fetch returns the instruction at pc. Wrong-path fetches can run past the
// end of the code; those return Halt, which is harmless because Halt only
// takes effect at commit and a wrong-path Halt never commits.
func (p *Program) Fetch(pc arch.Addr) Inst {
	if uint64(pc) >= uint64(len(p.Code)) {
		return Inst{Op: OpHalt}
	}
	return p.Code[pc]
}

// Memory is the functional data memory: a sparse, page-organized store of
// 8-byte words. The timing model (caches, DRAM) is entirely separate; this
// holds only values.
type Memory struct {
	pages map[uint64]*[pageWords]uint64
}

const (
	pageBytes = 4096
	pageWords = pageBytes / 8
)

// NewMemory creates an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageWords]uint64)}
}

// LoadProgram initializes memory from a program's Data section.
func (m *Memory) LoadProgram(p *Program) {
	//simlint:ordered -- writes to distinct addresses commute; the resulting memory image is order-independent
	for a, v := range p.Data {
		m.Write64(a, v)
	}
}

func (m *Memory) page(a arch.Addr, create bool) (*[pageWords]uint64, uint64) {
	pn := uint64(a) / pageBytes
	pg, ok := m.pages[pn]
	if !ok {
		if !create {
			return nil, 0
		}
		pg = new([pageWords]uint64)
		m.pages[pn] = pg
	}
	return pg, (uint64(a) % pageBytes) / 8
}

// Read64 returns the 8-byte word at a (aligned down to 8 bytes).
// Unwritten memory reads as zero.
func (m *Memory) Read64(a arch.Addr) uint64 {
	pg, idx := m.page(a, false)
	if pg == nil {
		return 0
	}
	return pg[idx]
}

// Write64 stores an 8-byte word at a (aligned down to 8 bytes).
func (m *Memory) Write64(a arch.Addr, v uint64) {
	pg, idx := m.page(a, true)
	pg[idx] = v
}
