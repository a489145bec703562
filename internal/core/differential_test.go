package core

import (
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/invisispec"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/policy"
)

// TestDifferentialAgainstInterpreter runs random halting programs on the
// sequential reference interpreter and on the out-of-order machine under
// every security policy, and requires bit-identical architectural results:
// registers, the memory window, and the committed instruction count.
//
// This is the strongest correctness statement the repository makes about
// the core: wrong-path execution, squashes, store-to-load forwarding,
// memory-order violations, in-flight drops, and CleanupSpec's cache
// surgery never alter architectural state.
func TestDifferentialAgainstInterpreter(t *testing.T) {
	policies := map[string]func() cpu.Policy{
		"nonsecure":          func() cpu.Policy { return cpu.NonSecure{} },
		"cleanupspec":        func() cpu.Policy { return New() },
		"invisispec-initial": func() cpu.Policy { return invisispec.New(invisispec.Initial) },
		"invisispec-revised": func() cpu.Policy { return invisispec.New(invisispec.Revised) },
		"delay-all":          func() cpu.Policy { return policy.Delay{} },
		"delay-on-miss":      func() cpu.Policy { return policy.DelayOnMiss{} },
		"value-predict":      func() cpu.Policy { return policy.NewValuePredict() },
	}
	const seeds = 25
	for seed := uint64(1); seed <= seeds; seed++ {
		prog := isa.RandomProgram(seed, isa.GenConfig{})

		ref := isa.NewInterp(prog)
		if ref.Run(2_000_000) >= 2_000_000 {
			t.Fatalf("seed %d: interpreter did not halt", seed)
		}

		for name, mk := range policies {
			name, mk := name, mk
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				hcfg := memsys.DefaultConfig(1)
				if name == "cleanupspec" {
					hcfg = HierarchyConfig(hcfg)
				}
				h := memsys.New(hcfg)
				ccfg := cpu.DefaultConfig()
				ccfg.MaxCycles = 20_000_000
				m := cpu.New(ccfg, prog, h, mk())
				st := m.Run(0)
				if !m.Halted() {
					t.Fatalf("machine did not halt (committed %d)", st.Committed)
				}
				if st.Committed != ref.Executed {
					t.Errorf("committed %d instructions, interpreter executed %d",
						st.Committed, ref.Executed)
				}
				for r := isa.Reg(1); r < isa.NumRegs; r++ {
					if got, want := m.Reg(r), ref.Reg(r); got != want {
						t.Errorf("r%d = %#x, interpreter says %#x", r, got, want)
					}
				}
				for w := 0; w < 64; w++ {
					addr := arch.Addr(0x1000 + w*8)
					if got, want := m.Memory().Read64(addr), ref.Memory().Read64(addr); got != want {
						t.Errorf("mem[%v] = %#x, interpreter says %#x", addr, got, want)
					}
				}
			})
		}
	}
}

// TestDifferentialStress widens the search with bigger programs and a tiny
// memory window (maximum aliasing) on the two most intricate policies.
func TestDifferentialStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	for seed := uint64(100); seed < 140; seed++ {
		prog := isa.RandomProgram(seed, isa.GenConfig{
			Segments: 30, OpsPerSegment: 10, MemWindowWords: 8,
		})
		ref := isa.NewInterp(prog)
		if ref.Run(5_000_000) >= 5_000_000 {
			t.Fatalf("seed %d: interpreter did not halt", seed)
		}
		for _, mk := range []func() cpu.Policy{
			func() cpu.Policy { return New() },
			func() cpu.Policy { return invisispec.New(invisispec.Initial) },
		} {
			h := memsys.New(HierarchyConfig(memsys.DefaultConfig(1)))
			ccfg := cpu.DefaultConfig()
			ccfg.MaxCycles = 50_000_000
			m := cpu.New(ccfg, prog, h, mk())
			m.Run(0)
			if !m.Halted() {
				t.Fatalf("seed %d: machine did not halt", seed)
			}
			for r := isa.Reg(1); r < isa.NumRegs; r++ {
				if m.Reg(r) != ref.Reg(r) {
					t.Fatalf("seed %d: r%d = %#x, want %#x", seed, r, m.Reg(r), ref.Reg(r))
				}
			}
			for w := 0; w < 8; w++ {
				addr := arch.Addr(0x1000 + w*8)
				if m.Memory().Read64(addr) != ref.Memory().Read64(addr) {
					t.Fatalf("seed %d: mem[%v] mismatch", seed, addr)
				}
			}
		}
	}
}
