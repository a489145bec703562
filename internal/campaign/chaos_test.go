package campaign

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/sim"
)

// chaosJobs is a tiny grid sized so a hundred-odd full campaign runs stay
// fast: two workloads, short instruction budgets, a tight watchdog so an
// injected commit stall fails in thousands of cycles rather than burning
// to MaxCycles.
func chaosJobs() []Job {
	g := Grid{
		Name:         "chaos",
		Workloads:    []string{"astar", "gcc"},
		Policies:     []sim.Policy{sim.NonSecure},
		Seeds:        []uint64{1},
		Instructions: 2_000,
	}
	jobs := g.Jobs()
	for i := range jobs {
		jobs[i].Config.NoWarmup = true
		jobs[i].Config.MaxCycles = 3_000_000
		jobs[i].Config.WatchdogWindow = 5_000
	}
	return jobs
}

// chaosRun executes one campaign over the chaos grid with the given fault
// injector wired into every layer, guarded by a hard wall-clock timeout:
// a hung run is itself a test failure ("every run terminates").
func chaosRun(t *testing.T, dir string, inj *faultinject.Injector) []JobResult {
	t.Helper()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Faults = inj
	eng := NewEngine()
	eng.Workers = 2
	eng.Cache = cache
	eng.Faults = inj
	eng.Reporter = NewReporter(io.Discard)
	m, ok := LoadManifest(dir)
	if !ok {
		m = NewManifest(dir, "chaos")
	}
	m.Faults = inj
	eng.Manifest = m

	done := make(chan []JobResult, 1)
	go func() { done <- eng.Run(chaosJobs()) }()
	select {
	case results := <-done:
		return results
	case <-time.After(2 * time.Minute):
		t.Fatal("chaos run did not terminate")
		return nil
	}
}

// TestChaosSchedules is the fault-injection property test: across 100+
// seeded fault schedules, every campaign run terminates, fsck finds no
// corruption the read path did not already detect and contain, and a
// fault-free rerun over the surviving cache converges to a result export
// byte-identical to a never-faulted campaign.
func TestChaosSchedules(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 12
	}
	jobs := chaosJobs()

	// The fault-free reference export.
	refDir := t.TempDir()
	refResults := chaosRun(t, refDir, nil)
	if n := len(Failed(refResults)) + len(Quarantined(refResults)); n != 0 {
		t.Fatalf("%d jobs failed in the fault-free reference run", n)
	}
	var ref strings.Builder
	if err := ResultsCSV(&ref, refResults); err != nil {
		t.Fatal(err)
	}

	injected := 0 // across all seeds: guards the test against vacuity
	for seed := 1; seed <= seeds; seed++ {
		dir := t.TempDir()
		inj := faultinject.New(uint64(seed))

		// Phase 1: the faulted run. It must terminate (chaosRun enforces
		// that) — individual jobs may fail or be quarantined.
		chaosRun(t, dir, inj)
		injected += len(inj.Events())

		// Phase 2: fsck with prune. Whatever the faults left behind must
		// be detected damage, never a crash; prune clears it.
		if _, err := Fsck(dir, true); err != nil {
			t.Fatalf("seed %d: fsck: %v", seed, err)
		}

		// Phase 3: the fault-free rerun must converge — no failures, and
		// an export byte-identical to the never-faulted reference.
		results := chaosRun(t, dir, nil)
		if n := len(Failed(results)) + len(Quarantined(results)); n != 0 {
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("seed %d: rerun job %s: %v", seed, r.Job, r.Err)
				}
			}
			t.Fatalf("seed %d: %d jobs failed on the fault-free rerun (schedule: %v)",
				seed, n, inj.Events())
		}
		var got strings.Builder
		if err := ResultsCSV(&got, results); err != nil {
			t.Fatal(err)
		}
		if got.String() != ref.String() {
			t.Fatalf("seed %d: rerun export diverged from fault-free reference\n got: %q\nwant: %q",
				seed, got.String(), ref.String())
		}

		rep, err := Fsck(dir, false)
		if err != nil {
			t.Fatalf("seed %d: final fsck: %v", seed, err)
		}
		if !rep.Clean() {
			t.Fatalf("seed %d: cache dirty after converged rerun: %s", seed, rep)
		}
		if got, want := len(jobs), rep.OK; got != want {
			t.Fatalf("seed %d: %d clean entries after rerun, want %d", seed, want, got)
		}
	}
	if injected < seeds {
		t.Fatalf("only %d faults fired across %d schedules — the chaos test is not exercising anything", injected, seeds)
	}
}
