// Package repro's benchmark suite holds the substrate microbenchmarks that
// cmd/benchrun records and CI gates, plus the three ablations of DESIGN.md
// section 6 that no paperbench report regenerates. Run with:
//
//	go test -bench=. -benchmem
//
// The paper's tables and figures are regenerated by `go run
// ./cmd/paperbench` (one experiment: `paperbench -exp <id>`).
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/ceaser"
	"repro/sim"
)

// --- substrate microbenchmarks (cmd/benchrun's default pattern) ---

func BenchmarkCacheLookup(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", SizeBytes: 64 << 10, Ways: 8, Repl: cache.ReplLRU, Seed: 1})
	for i := 0; i < 1024; i++ {
		c.Install(arch.LineAddr(i), arch.Exclusive, 0, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(arch.LineAddr(i & 1023))
	}
}

func BenchmarkCEASEREncrypt(b *testing.B) {
	ix := ceaser.New(2048, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SetIndex(arch.LineAddr(i))
	}
}

func BenchmarkPredictor(b *testing.B) {
	p := branch.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := p.Predict(arch.Addr(i & 255))
		p.Update(ps, i&3 != 0)
	}
}

// BenchmarkSimulatorThroughput reports simulated instructions per second of
// wall time for the full pipeline under CleanupSpec.
func BenchmarkSimulatorThroughput(b *testing.B) {
	const n = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload("perl", sim.Config{Policy: sim.CleanupSpec, Instructions: n, NoWarmup: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sim-instructions/s")
}

// BenchmarkCellSetup times one short cell on lbm, the largest footprint
// (16 MB): building the hierarchy and prewarming its L2 dominate, so this
// gates the per-cell set-up that BenchmarkSimulatorThroughput's NoWarmup
// runs skip.
func BenchmarkCellSetup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload("lbm", sim.Config{Policy: sim.CleanupSpec, Instructions: 1_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeldLoads runs a 100k-instruction libq cell, with its warmup,
// under delay-all: most cycles hold speculative loads in the retry list
// until a branch resolves, so this gates what a held load costs per cycle.
func BenchmarkHeldLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWorkload("libq", sim.Config{Policy: sim.DelayAll, Instructions: 100_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpectrePoC runs Figure 11's Spectre v1 proof of concept under
// CleanupSpec for 10 rounds. Its rdcycle reads wait at the ROB head behind
// DRAM misses, so its allocs/op catch any allocation made per waiting
// cycle.
func BenchmarkSpectrePoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSpectre(sim.CleanupSpec, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (DESIGN.md section 6) ---

// benchAblation runs wl under CleanupSpec with and without the knob set by
// with, and reports the knob's slowdown in percent under unit.
func benchAblation(b *testing.B, wl string, with func(*sim.Config), unit string) {
	var slow float64
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Policy: sim.CleanupSpec, Instructions: 30_000}
		base, err := sim.RunWorkload(wl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		with(&cfg)
		r, err := sim.RunWorkload(wl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		slow = (float64(r.Cycles)/float64(base.Cycles) - 1) * 100
	}
	b.ReportMetric(slow, unit)
}

// BenchmarkAblation_ConstantTimeCleanup measures the cost of padding every
// cleanup stall to a constant 50 cycles (the Section 4b hardening).
func BenchmarkAblation_ConstantTimeCleanup(b *testing.B) {
	benchAblation(b, "astar", func(c *sim.Config) { c.ConstantTimeCleanup = 50 }, "extra-slowdown-%")
}

// BenchmarkAblation_NoMoPartition measures way-partitioning the L1 (4 of 8
// ways per SMT thread, Section 3.6): the paper reports < 2% slowdown.
func BenchmarkAblation_NoMoPartition(b *testing.B) {
	benchAblation(b, "sphinx3", func(c *sim.Config) { c.L1PartitionWays = 4 }, "nomo-slowdown-%")
}

// BenchmarkAblation_CEASERRemap measures CEASER's gradual remap running
// continuously under CleanupSpec (functional relocation; CEASER reports
// ~1% timing cost, which this model does not charge).
func BenchmarkAblation_CEASERRemap(b *testing.B) {
	benchAblation(b, "soplex", func(c *sim.Config) { c.L2RemapEvery = 100 }, "remap-slowdown-%")
}
