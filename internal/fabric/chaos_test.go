package fabric

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/xrand"
	"repro/sim"
)

// chaosJobs is the fixed small campaign every chaos schedule runs: four
// cells, one dependency edge, short workloads.
func chaosJobs(t *testing.T) ([]Cell, []campaign.Job) {
	t.Helper()
	jobs := []campaign.Job{
		{Workload: "gcc", Config: sim.Config{Policy: sim.CleanupSpec, Instructions: 500, Seed: 1}},
		{Workload: "gcc", Config: sim.Config{Policy: sim.NonSecure, Instructions: 500, Seed: 1}},
		{Workload: "lbm", Config: sim.Config{Policy: sim.CleanupSpec, Instructions: 500, Seed: 2}},
		{Workload: "lbm", Config: sim.Config{Policy: sim.NonSecure, Instructions: 500, Seed: 2}},
	}
	cells, err := CellsFromJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	cells[3].Deps = []string{cells[0].Key}
	return cells, jobs
}

// chaosTally aggregates event counts across the whole seed sweep — the
// vacuity guards: a chaos test that never expired a lease, never fired a
// message fault, and never killed a lease holder proves nothing.
type chaosTally struct {
	expired, stale, dup, rejected, remote, degraded atomic.Int64
	msgFaults, killsHolding, kills                  atomic.Int64
}

// TestChaosConvergence is the fabric's headline property test: across 40
// seeded fault schedules — lost / dropped / duplicated / reordered /
// corrupted messages, instantly-expiring grants, torn journal appends,
// corrupt cache writes, and (every third seed) a worker killed mid-run —
// every campaign terminates, and a fault-free pass over the surviving
// cache dir converges to an export byte-identical to a never-faulted
// single-host run.
func TestChaosConvergence(t *testing.T) {
	cells, jobs := chaosJobs(t)
	want := referenceExport(t, jobs)
	tally := &chaosTally{}

	t.Run("seeds", func(t *testing.T) {
		for seed := uint64(0); seed < 40; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				chaosRun(t, seed, cells, want, tally)
			})
		}
	})

	// Vacuity guards: the sweep must actually have exercised the recovery
	// machinery it claims to test.
	if n := tally.expired.Load(); n == 0 {
		t.Error("no lease ever expired across the sweep")
	}
	if n := tally.msgFaults.Load(); n == 0 {
		t.Error("no transport fault ever fired across the sweep")
	}
	if n := tally.stale.Load() + tally.dup.Load(); n == 0 {
		t.Error("no stale or duplicate completion across the sweep")
	}
	if tally.kills.Load() == 0 || tally.killsHolding.Load() == 0 {
		t.Errorf("kills=%d killsHolding=%d: no worker was ever killed while holding a lease",
			tally.kills.Load(), tally.killsHolding.Load())
	}
	t.Logf("sweep totals: expired=%d stale=%d dup=%d rejected=%d remote=%d degraded=%d msgFaults=%d kills=%d (holding=%d)",
		tally.expired.Load(), tally.stale.Load(), tally.dup.Load(), tally.rejected.Load(),
		tally.remote.Load(), tally.degraded.Load(), tally.msgFaults.Load(),
		tally.kills.Load(), tally.killsHolding.Load())
}

// chaosRun drives one seeded schedule to termination and convergence.
func chaosRun(t *testing.T, seed uint64, cells []Cell, want string, tally *chaosTally) {
	inj := faultinject.New(seed)
	cacheDir := t.TempDir()
	c, err := NewCoordinator(Config{Grid: "chaos", Cells: cells, CacheDir: cacheDir, TTLTicks: 4, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	conn := &FaultConn{Inner: &LocalConn{C: c}, Faults: inj}

	var alive []*Worker
	for i := 0; i < 3; i++ {
		w := newWorker(t, fmt.Sprintf("w%d", i), conn)
		w.Faults = inj
		alive = append(alive, w)
	}

	// SIGKILL mid-campaign (every third seed): step the victim until it
	// holds a lease, then it never steps again — the held lease must
	// expire and re-queue, never wedge the campaign. A replacement worker
	// joins, as a restarted host would.
	if seed%3 == 0 {
		victim := alive[0]
		for i := 0; i < 50 && victim.Holding() == ""; i++ {
			if done, err := victim.Step(); err != nil {
				t.Fatal(err)
			} else if done {
				break
			}
		}
		if victim.Holding() != "" {
			tally.killsHolding.Add(1)
		}
		tally.kills.Add(1)
		alive = alive[1:]
		nw := newWorker(t, "w-replacement", conn)
		nw.Faults = inj
		alive = append(alive, nw)
	}

	// The schedule interleaves worker steps, explicit heartbeats, and
	// clock ticks under a seeded stream independent of the fault plan.
	sched := xrand.New(xrand.Hash64(seed ^ 0xfab41c))
	for step := 0; step < 4000 && !c.Settled(); step++ {
		if len(alive) == 0 {
			break
		}
		switch w := alive[sched.Intn(len(alive))]; sched.Intn(10) {
		case 0, 1:
			c.Advance(1)
		case 2:
			w.Renew()
		default:
			done, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				for i, a := range alive {
					if a == w {
						alive = append(alive[:i], alive[i+1:]...)
						break
					}
				}
			}
		}
	}
	// Drain: whatever the schedule left in flight, expiry plus a few more
	// rounds must settle it — this is the termination property.
	for i := 0; i < 200 && !c.Settled(); i++ {
		c.Advance(5)
		for _, w := range alive {
			if _, err := w.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !c.Settled() {
		p, l, d, f, q := c.Counts()
		t.Fatalf("seed %d: campaign never settled (pending=%d leased=%d done=%d failed=%d quarantined=%d)", seed, p, l, d, f, q)
	}
	st := c.Stats()
	tally.expired.Add(int64(st.Expired))
	tally.stale.Add(int64(st.StaleCompletes))
	tally.dup.Add(int64(st.DupCompletes))
	tally.rejected.Add(int64(st.Rejected))
	tally.remote.Add(int64(st.RemoteReads))
	for _, w := range alive {
		tally.degraded.Add(int64(w.Degraded))
	}
	for _, e := range inj.Events() {
		if e.Site == faultinject.SiteFabricMsg {
			tally.msgFaults.Add(1)
		}
	}
	c.Close() // faults may have left the journals mid-scar; convergence below is the real check

	// Convergence: a fault-free pass over the surviving cache dir (resume
	// from verified entries, re-simulate anything missing or corrupt) must
	// reproduce the single-host export byte for byte.
	c2, err := NewCoordinator(Config{Grid: "chaos", Cells: cells, CacheDir: cacheDir})
	if err != nil {
		t.Fatalf("seed %d: reopening coordinator: %v", seed, err)
	}
	defer c2.Close()
	w := newWorker(t, "w-verify", &LocalConn{C: c2})
	runToShutdown(t, w)
	_, _, done, failed, quarantined := c2.Counts()
	if done != len(cells) || failed != 0 || quarantined != 0 {
		t.Fatalf("seed %d: converged counts done=%d failed=%d quarantined=%d, want %d/0/0", seed, done, failed, quarantined, len(cells))
	}
	if got := cacheExport(t, c2.Cache()); got != want {
		t.Errorf("seed %d: converged export differs from single-host run:\n%s\nvs\n%s", seed, got, want)
	}
}
