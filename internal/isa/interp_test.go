package isa

import (
	"testing"

	"repro/internal/arch"
)

func TestInterpBasicProgram(t *testing.T) {
	b := NewBuilder("basic")
	b.Li(1, 5)
	b.Li(2, 7)
	b.Add(3, 1, 2)
	b.Li(4, 0x1000)
	b.Store(4, 0, 3)
	b.Load(5, 4, 0)
	b.Halt()
	it := NewInterp(b.Build())
	it.Run(0)
	if !it.Halted() {
		t.Fatal("did not halt")
	}
	if it.Reg(5) != 12 {
		t.Fatalf("r5 = %d", it.Reg(5))
	}
	if it.Memory().Read64(0x1000) != 12 {
		t.Fatal("store missing")
	}
	if it.Executed != 7 {
		t.Fatalf("executed %d", it.Executed)
	}
}

func TestInterpControlFlow(t *testing.T) {
	b := NewBuilder("ctrl")
	b.Li(1, 3)
	b.Li(9, 0)
	b.Label("loop")
	b.AddI(9, 9, 10)
	b.AddI(1, 1, -1)
	b.Br(CondNE, 1, 0, "loop")
	b.Call("fn")
	b.Halt()
	b.Label("fn")
	b.AddI(9, 9, 1)
	b.Ret()
	it := NewInterp(b.Build())
	it.Run(0)
	if it.Reg(9) != 31 {
		t.Fatalf("r9 = %d, want 31", it.Reg(9))
	}
}

func TestInterpR0Hardwired(t *testing.T) {
	b := NewBuilder("r0")
	b.Li(0, 42)
	b.AddI(1, 0, 1)
	b.Halt()
	it := NewInterp(b.Build())
	it.Run(0)
	if it.Reg(0) != 0 || it.Reg(1) != 1 {
		t.Fatalf("r0=%d r1=%d", it.Reg(0), it.Reg(1))
	}
}

func TestInterpRunBudget(t *testing.T) {
	b := NewBuilder("inf")
	b.Label("loop")
	b.Jmp("loop")
	it := NewInterp(b.Build())
	if n := it.Run(100); n != 100 {
		t.Fatalf("executed %d, want 100", n)
	}
	if it.Halted() {
		t.Fatal("must not be halted")
	}
}

func TestRandomProgramsHalt(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		p := RandomProgram(seed, GenConfig{})
		it := NewInterp(p)
		if it.Run(1_000_000) >= 1_000_000 {
			t.Fatalf("seed %d: random program did not halt", seed)
		}
		if !it.Halted() {
			t.Fatalf("seed %d: not halted", seed)
		}
	}
}

func TestRandomProgramDeterministic(t *testing.T) {
	a := RandomProgram(7, GenConfig{})
	b := RandomProgram(7, GenConfig{})
	if len(a.Code) != len(b.Code) {
		t.Fatal("non-deterministic generator")
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	// And different seeds differ.
	c := RandomProgram(8, GenConfig{})
	if len(a.Code) == len(c.Code) {
		same := true
		for i := range a.Code {
			if a.Code[i] != c.Code[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical programs")
		}
	}
}

func TestRandomProgramTouchesMemoryWindow(t *testing.T) {
	p := RandomProgram(3, GenConfig{})
	it := NewInterp(p)
	it.Run(0)
	// At least one store should have landed in the window for the
	// differential tests' memory comparison to be meaningful.
	changed := false
	for w := 0; w < 64; w++ {
		addr := arch.Addr(0x1000 + w*8)
		if _, ok := p.Data[addr]; ok && it.Memory().Read64(addr) != p.Data[addr] {
			changed = true
		}
	}
	if !changed {
		t.Log("seed 3 performed no visible stores; acceptable but worth knowing")
	}
}
