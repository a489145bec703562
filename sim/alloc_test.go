package sim

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/workload"
)

// maxAllocsPerKInstr bounds the cycle loop's steady-state heap allocations
// per 1,000 committed instructions. Load transactions, MSHR entries,
// directory entries and squash worklists are recycled and no load builds
// a closure, so what remains is the functional memory's first touch of a
// page, rare growth of reused buffers and the scratch of CleanupSpec's
// cleanup batches: about 0.6 per 1,000 instructions on these workloads,
// against about 560 when every load allocated its transaction and
// callback.
const maxAllocsPerKInstr = 2

// TestSteadyStateAllocations steps warmed-up machines through a further
// fixed window and bounds the heap allocations the window makes, so a
// regression back to per-load or per-instruction allocation fails here
// rather than in a benchmark.
func TestSteadyStateAllocations(t *testing.T) {
	const (
		warmup = 50_000
		window = 20_000
	)
	for _, tc := range []struct {
		workload string
		policy   Policy
	}{
		{"astar", NonSecure},
		{"astar", CleanupSpec},
		{"gobmk", CleanupSpec},
		{"mcf", NonSecure},
		{"mcf", CleanupSpec},
	} {
		t.Run(tc.workload+"/"+string(tc.policy), func(t *testing.T) {
			m := warmMachine(t, tc.workload, tc.policy, warmup)
			target := m.Stats.Committed
			allocs := testing.AllocsPerRun(4, func() {
				target += window
				m.Run(target)
			})
			if m.Halted() || m.LivelockErr() != nil {
				t.Fatalf("machine stopped early (halted %v, livelock %v)", m.Halted(), m.LivelockErr())
			}
			perK := allocs / (window / 1000)
			t.Logf("%.2f allocs per 1k instructions (%.0f per %d-instruction window)", perK, allocs, window)
			if perK > maxAllocsPerKInstr {
				t.Errorf("%.2f allocs per 1k committed instructions, want <= %d", perK, maxAllocsPerKInstr)
			}
		})
	}
}

// warmMachine builds the machine RunWorkload would simulate and runs it
// through warmup committed instructions.
func warmMachine(t *testing.T, name string, pol Policy, warmup uint64) *cpu.Machine {
	t.Helper()
	prof, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	p, hcfg, err := BuildPolicy(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	prog := prof.Build()
	h := memsys.New(hcfg)
	prewarm(h, prof, prog)
	m := cpu.New(cpu.DefaultConfig(), prog, h, p)
	m.Run(warmup)
	return m
}
