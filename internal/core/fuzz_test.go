package core

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// FuzzDifferentialCleanupSpec lets the fuzzer hunt for program seeds where
// the out-of-order machine under CleanupSpec diverges from the sequential
// interpreter. `go test` runs the seed corpus; `go test -fuzz=Fuzz...`
// explores further.
func FuzzDifferentialCleanupSpec(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(12), uint8(64))
	}
	f.Fuzz(func(t *testing.T, seed uint64, segments, windowWords uint8) {
		segs := int(segments%40) + 1
		words := 1 << (windowWords % 8) // 1..128 words
		prog := isa.RandomProgram(seed, isa.GenConfig{
			Segments: segs, MemWindowWords: words,
		})
		ref := isa.NewInterp(prog)
		if ref.Run(3_000_000) >= 3_000_000 {
			t.Skip("generator degenerated into a very long program")
		}
		h := memsys.New(HierarchyConfig(memsys.DefaultConfig(1)))
		ccfg := cpu.DefaultConfig()
		ccfg.MaxCycles = 30_000_000
		m := cpu.New(ccfg, prog, h, New())
		m.Run(0)
		if !m.Halted() {
			t.Fatalf("machine did not halt (seed %d segs %d words %d)", seed, segs, words)
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if m.Reg(r) != ref.Reg(r) {
				t.Fatalf("r%d = %#x, interpreter says %#x (seed %d segs %d words %d)",
					r, m.Reg(r), ref.Reg(r), seed, segs, words)
			}
		}
	})
}
