package isa

import (
	"fmt"

	"repro/internal/arch"
)

// Builder assembles a Program with symbolic labels. Emit methods append one
// instruction each; Label marks the next instruction's address; branch and
// jump targets may reference labels defined later (fixed up in Build).
type Builder struct {
	name   string
	code   []Inst
	labels map[string]arch.Addr
	fixups []fixup
	data   map[arch.Addr]uint64
}

type fixup struct {
	at    int
	label string
}

// NewBuilder creates a builder for a program called name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]arch.Addr),
		data:   make(map[arch.Addr]uint64),
	}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() arch.Addr { return arch.Addr(len(b.code)) }

// Label binds name to the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		// Label misuse is a programmer error in test-program construction.
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = b.PC()
}

// InitData sets the initial value of the 8-byte word at addr.
func (b *Builder) InitData(addr arch.Addr, v uint64) { b.data[addr] = v }

func (b *Builder) emit(in Inst) *Builder {
	b.code = append(b.code, in)
	return b
}

func (b *Builder) emitCtrl(in Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{at: len(b.code), label: label})
	return b.emit(in)
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(Inst{Op: OpNop}) }

// Li loads an immediate: rd = imm.
func (b *Builder) Li(rd Reg, imm int64) *Builder {
	return b.emit(Inst{Op: OpALU, Alu: AluAdd, Rd: rd, Rs1: 0, Imm: imm, UseImm: true})
}

// Alu emits rd = kind(rs1, rs2).
func (b *Builder) Alu(kind ALUKind, rd, rs1, rs2 Reg) *Builder {
	return b.emit(Inst{Op: OpALU, Alu: kind, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AluI emits rd = kind(rs1, imm).
func (b *Builder) AluI(kind ALUKind, rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Inst{Op: OpALU, Alu: kind, Rd: rd, Rs1: rs1, Imm: imm, UseImm: true})
}

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 Reg) *Builder { return b.Alu(AluAdd, rd, rs1, rs2) }

// AddI emits rd = rs1 + imm.
func (b *Builder) AddI(rd, rs1 Reg, imm int64) *Builder { return b.AluI(AluAdd, rd, rs1, imm) }

// Mix emits rd = hash64(rs1 + imm), the synthetic address scrambler.
func (b *Builder) Mix(rd, rs1 Reg, imm int64) *Builder { return b.AluI(AluMix, rd, rs1, imm) }

// Load emits rd = mem64[rs1 + imm].
func (b *Builder) Load(rd, rs1 Reg, imm int64) *Builder {
	return b.emit(Inst{Op: OpLoad, Rd: rd, Rs1: rs1, Imm: imm})
}

// Store emits mem64[rs1 + imm] = rs2.
func (b *Builder) Store(rs1 Reg, imm int64, rs2 Reg) *Builder {
	return b.emit(Inst{Op: OpStore, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// Br emits a conditional branch to label.
func (b *Builder) Br(c Cond, rs1, rs2 Reg, label string) *Builder {
	return b.emitCtrl(Inst{Op: OpBranch, Cond: c, Rs1: rs1, Rs2: rs2}, label)
}

// Jmp emits an unconditional jump to label.
func (b *Builder) Jmp(label string) *Builder {
	return b.emitCtrl(Inst{Op: OpJump}, label)
}

// Call emits a call to label.
func (b *Builder) Call(label string) *Builder {
	return b.emitCtrl(Inst{Op: OpCall}, label)
}

// Ret emits a return: an indirect jump to the link register (r31), which
// Call writes. The front end predicts it via the RAS.
func (b *Builder) Ret() *Builder { return b.emit(Inst{Op: OpRet, Rs1: LinkReg}) }

// CLFlush emits a cache-line flush of mem[rs1 + imm].
func (b *Builder) CLFlush(rs1 Reg, imm int64) *Builder {
	return b.emit(Inst{Op: OpCLFlush, Rs1: rs1, Imm: imm})
}

// Fence emits a load fence.
func (b *Builder) Fence() *Builder { return b.emit(Inst{Op: OpFence}) }

// RdCycle emits rd = cycle counter (serializing).
func (b *Builder) RdCycle(rd Reg) *Builder { return b.emit(Inst{Op: OpRdCycle, Rd: rd}) }

// Halt emits program termination.
func (b *Builder) Halt() *Builder { return b.emit(Inst{Op: OpHalt}) }

// Build resolves labels and returns the program.
func (b *Builder) Build() *Program {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			// Label misuse is a programmer error in test-program
			// construction.
			panic(fmt.Sprintf("isa: undefined label %q", f.label))
		}
		b.code[f.at].Target = target
	}
	return &Program{Name: b.name, Code: b.code, Entry: 0, Data: b.data}
}
