package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/smt"
	"repro/internal/workload"
)

// maxAllocsPerKInstr bounds the cycle loop's steady-state heap allocations
// per 1,000 committed instructions. Load transactions, MSHR entries,
// directory entries and squash worklists are recycled, no load or
// value-prediction validation builds a closure, and coherence grants name
// remote cores by bit mask, so what remains is the functional memory's
// first touch of a page, rare growth of reused buffers, the scratch of
// CleanupSpec's cleanup batches and the worklist of each CEASER remap
// step: at most 0.7 per 1,000 instructions on the single-core cells and
// 1.3 on the two-core pair, against about 560 when every load allocated
// its transaction and callback.
const maxAllocsPerKInstr = 2

// TestSteadyStateAllocations steps warmed-up machines through a further
// fixed window and bounds the heap allocations the window makes, so a
// regression back to per-load or per-instruction allocation fails here
// rather than in a benchmark. It covers every hot path production runs:
// every policy on astar and mcf, since only some of them reach
// InvisiSpec's update loads, the delay policies' retries or value
// prediction's validations; CEASER's gradual remap on mcf; and the
// cross-core coherence of a two-core pair built as the mp2 experiment
// builds it.
func TestSteadyStateAllocations(t *testing.T) {
	const (
		warmup = 50_000
		window = 20_000
	)
	type cell struct {
		name     string
		workload string
		cfg      Config
	}
	cells := []cell{
		{"gobmk/cleanupspec", "gobmk", Config{Policy: CleanupSpec}},
		{"mcf/cleanupspec-remap", "mcf", Config{Policy: CleanupSpec, L2RemapEvery: 64}},
	}
	for _, w := range []string{"astar", "mcf"} {
		for _, p := range Policies() {
			cells = append(cells, cell{w + "/" + string(p), w, Config{Policy: p}})
		}
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			m := warmMachine(t, tc.workload, tc.cfg, warmup)
			target := m.Stats.Committed
			checkAllocs(t, window, func() {
				target += window
				m.Run(target)
			})
			if m.Halted() || m.LivelockErr() != nil {
				t.Fatalf("machine stopped early (halted %v, livelock %v)", m.Halted(), m.LivelockErr())
			}
		})
	}
	t.Run("sphinx3+gcc/cleanupspec-crosscore", func(t *testing.T) {
		p := crossCorePair(t, "sphinx3", "gcc")
		committed := func() uint64 { return p.A.Stats.Committed + p.B.Stats.Committed }
		target := uint64(warmup)
		step := func() {
			for committed() < target && !p.A.Halted() && !p.B.Halted() {
				p.A.Step()
				p.B.Step()
			}
		}
		step()
		checkAllocs(t, window, func() {
			target += window
			step()
		})
		if committed() < target {
			t.Fatalf("pair stopped early at %d of %d instructions", committed(), target)
		}
	})
}

// checkAllocs fails t when run, which commits window instructions per
// call, allocates more than maxAllocsPerKInstr per 1,000 of them.
func checkAllocs(t *testing.T, window uint64, run func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(4, run)
	perK := allocs / float64(window/1000)
	t.Logf("%.2f allocs per 1k instructions (%.0f per %d-instruction window)", perK, allocs, window)
	if perK > maxAllocsPerKInstr {
		t.Errorf("%.2f allocs per 1k committed instructions, want <= %d", perK, maxAllocsPerKInstr)
	}
}

// warmMachine builds the machine RunWorkload would simulate for cfg and
// runs it through warmup committed instructions.
func warmMachine(t *testing.T, name string, cfg Config, warmup uint64) *cpu.Machine {
	t.Helper()
	prof, ok := workload.ProfileByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	p, hcfg, err := BuildPolicy(cfg)
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

// crossCorePair builds two CleanupSpec cores sharing the L2 and directory,
// running workloads a and b, as experiments.Multiprogrammed builds them.
func crossCorePair(t *testing.T, a, b string) *smt.Pair {
	t.Helper()
	pa, okA := workload.ProfileByName(a)
	pb, okB := workload.ProfileByName(b)
	if !okA || !okB {
		t.Fatalf("unknown workload in %q+%q", a, b)
	}
	return smt.NewCrossCorePair(smt.Config{
		Hierarchy: core.HierarchyConfig(memsys.DefaultConfig(2)),
		Core:      cpu.DefaultConfig(),
		ProgA:     pa.Build(),
		ProgB:     pb.Build(),
		PolA:      core.New(),
		PolB:      core.New(),
	})
}
