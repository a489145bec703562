package attack

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/invisispec"
	"repro/internal/memsys"
)

func fastSpectre() SpectreConfig {
	return SpectreConfig{Iterations: 8, Secret: 50}
}

func TestSpectreLeaksOnNonSecure(t *testing.T) {
	res := RunSpectreV1(cpu.NonSecure{}, memsys.DefaultConfig(1), fastSpectre())
	if !res.Leaked {
		t.Fatalf("non-secure baseline must leak; inferred %d (want %d), latencies %v",
			res.Inferred, res.Secret, res.AvgLatency[45:55])
	}
	// Benign (correct-path) indices must be fast, like Figure 11.
	slowest := 0.0
	for k := 0; k < ProbeEntries; k++ {
		if res.AvgLatency[k] > slowest {
			slowest = res.AvgLatency[k]
		}
	}
	for _, bidx := range res.BenignIndices[:5] {
		// Indices 1..5 are trained every iteration and must be fast;
		// higher training indices are touched only in some iterations.
		if res.AvgLatency[bidx] > slowest*0.6 {
			t.Errorf("benign index %d latency %.0f not clearly fast", bidx, res.AvgLatency[bidx])
		}
	}
}

func TestSpectreDefeatedByCleanupSpec(t *testing.T) {
	hcfg := core.HierarchyConfig(memsys.DefaultConfig(1))
	res := RunSpectreV1(core.New(), hcfg, fastSpectre())
	if res.Leaked {
		t.Fatalf("CleanupSpec must not leak; inferred %d, secret latency %.0f",
			res.Inferred, res.AvgLatency[res.Secret])
	}
	// The secret index must not stand out against the other non-benign
	// indices (Figure 11's flat line).
	var sum float64
	n := 0
	for k := 6; k < ProbeEntries; k++ {
		if k == res.Secret {
			continue
		}
		sum += res.AvgLatency[k]
		n++
	}
	mean := sum / float64(n)
	if res.AvgLatency[res.Secret] < mean*0.7 {
		t.Fatalf("secret index latency %.0f stands out below mean %.0f",
			res.AvgLatency[res.Secret], mean)
	}
	// Benign indices still behave as in the non-secure run (correct-path
	// installs are retained).
	for _, bidx := range res.BenignIndices[:5] {
		if res.AvgLatency[bidx] > mean*0.6 {
			t.Errorf("benign index %d latency %.0f should stay fast under CleanupSpec",
				bidx, res.AvgLatency[bidx])
		}
	}
}

func TestSpectreDefeatedByInvisiSpec(t *testing.T) {
	res := RunSpectreV1(invisispec.New(invisispec.Revised), memsys.DefaultConfig(1), fastSpectre())
	if res.Leaked {
		t.Fatalf("InvisiSpec must not leak; inferred %d", res.Inferred)
	}
}

func TestPrimeProbeObservesEvictionOnNonSecure(t *testing.T) {
	res := RunPrimeProbeL1(cpu.NonSecure{}, memsys.DefaultConfig(1), 22)
	if !res.EvictionObserved {
		t.Fatalf("non-secure baseline must show the transient eviction: %v", res.WayLatency)
	}
}

func TestPrimeProbeDefeatedByCleanupSpec(t *testing.T) {
	// LRU L1 keeps the priming deterministic; the defense under test is
	// the drop/restore machinery, not random replacement.
	hcfg := core.HierarchyConfig(memsys.DefaultConfig(1))
	hcfg.L1.Repl = cache.ReplLRU
	res := RunPrimeProbeL1(core.New(), hcfg, 22)
	if res.EvictionObserved {
		t.Fatalf("CleanupSpec must hide the transient eviction: %v", res.WayLatency)
	}
}

func TestL2PrimeProbeRandomizationBreaksSetPrediction(t *testing.T) {
	// Modulo indexing: the attacker's set prediction works.
	seen := 0
	for seed := uint64(0); seed < 10; seed++ {
		if L2PrimeProbeObservation(false, seed) {
			seen++
		}
	}
	if seen != 10 {
		t.Fatalf("modulo L2: eviction observed in %d/10 runs, want 10", seen)
	}
	// CEASER indexing: the victim lands in an unpredictable set, and the
	// attacker's primed lines are scattered too; observation becomes
	// rare chance.
	seen = 0
	for seed := uint64(0); seed < 10; seed++ {
		if L2PrimeProbeObservation(true, seed) {
			seen++
		}
	}
	if seen > 3 {
		t.Fatalf("randomized L2: eviction observed in %d/10 runs, want ~0", seen)
	}
}

func TestReplacementStateChannelLRULeaksRandomDoesNot(t *testing.T) {
	// LRU: the transient hit deterministically decides which line the
	// attacker's install evicts — a working side channel.
	if ReplacementStateChannel(cache.ReplLRU, true, 1) != true {
		t.Fatal("LRU with transient hit: A should survive (B became LRU)")
	}
	if ReplacementStateChannel(cache.ReplLRU, false, 1) != false {
		t.Fatal("LRU without transient hit: A should be evicted (A is LRU)")
	}
	// Random replacement: the outcome distribution is identical whether
	// or not the transient hit happened (hit updates no state), so the
	// per-seed outcomes match exactly.
	for seed := uint64(0); seed < 32; seed++ {
		with := ReplacementStateChannel(cache.ReplRandom, true, seed)
		without := ReplacementStateChannel(cache.ReplRandom, false, seed)
		if with != without {
			t.Fatalf("seed %d: random replacement outcome depends on the transient hit", seed)
		}
	}
}
