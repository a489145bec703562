package campaign

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/sim"
)

// smallGrid is a fixed-seed grid small enough for tests but wide enough to
// exercise the pool.
func smallGrid() Grid {
	return Grid{
		Name:         "test",
		Workloads:    []string{"astar", "gcc", "lbm", "sphinx3"},
		Policies:     []sim.Policy{sim.NonSecure, sim.CleanupSpec},
		Seeds:        []uint64{1, 2},
		Instructions: 6_000,
	}
}

// kindModel is a custom cell kind that stands in for a simulator model:
// simulateCell is its working executor, panickingCell a model bug that
// panics on every cell of the kind.
const kindModel CellKind = "model"

func simulateCell(job Job) (sim.Result, json.RawMessage, error) {
	res, err := sim.RunWorkload(job.Workload, job.Config)
	return res, nil, err
}

func panickingCell(job Job) (sim.Result, json.RawMessage, error) {
	panic("model bug in " + job.String())
}

// TestParallelMatchesSerial is the end-to-end determinism check: a
// 4-worker pool run must produce results identical to running every cell
// serially through sim.RunWorkload — same grid, same seeds, same bytes.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := smallGrid().Jobs()

	var serial []sim.Result
	for _, j := range jobs {
		cfg := j.Config
		// The engine runs every cell instrumented; match it so the
		// comparison also pins the metric snapshots to be identical.
		cfg.Metrics = &sim.Metrics{}
		res, err := sim.RunWorkload(j.Workload, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, res)
	}

	eng := NewEngine()
	eng.Workers = 4
	results := eng.Run(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s failed: %v", r.Job, r.Err)
		}
		if !reflect.DeepEqual(r.Result, serial[i]) {
			t.Fatalf("job %s: parallel result differs from serial:\n got %+v\nwant %+v",
				r.Job, r.Result, serial[i])
		}
	}

	// And the aggregated CSV must match byte for byte.
	var fromPool, fromSerial strings.Builder
	if err := ResultsCSV(&fromPool, results); err != nil {
		t.Fatal(err)
	}
	serialResults := make([]JobResult, len(jobs))
	for i := range jobs {
		serialResults[i] = JobResult{Job: jobs[i], Key: mustKey(t, jobs[i]), Result: serial[i]}
	}
	if err := ResultsCSV(&fromSerial, serialResults); err != nil {
		t.Fatal(err)
	}
	if fromPool.String() != fromSerial.String() {
		t.Fatal("aggregated CSV differs between parallel and serial runs")
	}
}

// TestSecondRunZeroSimulations pins cache-backed determinism: rerunning
// the same grid against a warm cache must perform zero simulations, even
// from a brand-new engine (fresh memo, disk only).
func TestSecondRunZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()

	first := NewEngine()
	first.Workers = 4
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first.Cache = cache
	results := first.Run(jobs)
	if first.Simulations() != int64(len(jobs)) {
		t.Fatalf("cold run simulated %d, want %d", first.Simulations(), len(jobs))
	}

	second := NewEngine()
	second.Workers = 4
	second.Cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rerun := second.Run(jobs)
	if second.Simulations() != 0 {
		t.Fatalf("warm rerun simulated %d cells, want 0", second.Simulations())
	}
	for i := range rerun {
		if !rerun[i].Cached {
			t.Fatalf("job %s not served from cache", rerun[i].Job)
		}
		if !reflect.DeepEqual(rerun[i].Result, results[i].Result) {
			t.Fatalf("job %s: cached result differs from simulated", rerun[i].Job)
		}
	}
}

// TestResumeAfterInterrupt models an interrupted campaign: only part of
// the grid made it into the cache; the resumed run simulates exactly the
// missing cells and completes.
func TestResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()
	half := jobs[:len(jobs)/2]

	first := NewEngine()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first.Cache = cache
	first.Run(half) // "interrupted" after half the grid

	resumed := NewEngine()
	resumed.Workers = 4
	resumed.Cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	results := resumed.Run(jobs)
	if n := len(Failed(results)); n != 0 {
		t.Fatalf("%d jobs failed on resume", n)
	}
	if got, want := resumed.Simulations(), int64(len(jobs)-len(half)); got != want {
		t.Fatalf("resumed run simulated %d cells, want exactly the %d missing ones", got, want)
	}
}

// TestResumeAfterPartialFailure injects a failing cell into the grid: the
// run must finish every good cell, record the bad one as failed after a
// single attempt, and a rerun must re-attempt only the failed cell.
func TestResumeAfterPartialFailure(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()
	bad := Job{Workload: "no-such-workload", Config: sim.Config{Policy: sim.NonSecure, Instructions: 6_000}}
	jobs = append(jobs[:3:3], append([]Job{bad}, jobs[3:]...)...)

	eng := NewEngine()
	eng.Workers = 4
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	results := eng.Run(jobs)

	failed := Failed(results)
	if len(failed) != 1 || failed[0].Job.Workload != "no-such-workload" {
		t.Fatalf("failed set: %+v", failed)
	}
	if got := eng.Simulations(); got != int64(len(jobs)) {
		t.Fatalf("run simulated %d times for %d cells, want one each (the bad cell attempted once)", got, len(jobs))
	}
	for _, r := range results {
		if r.Job.Workload != "no-such-workload" && r.Err != nil {
			t.Fatalf("good cell %s failed alongside the bad one: %v", r.Job, r.Err)
		}
	}
	// Resume: only the failed cell is re-attempted, everything else is a
	// cache hit.
	resumed := NewEngine()
	resumed.Cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Run(jobs)
	if got := resumed.Simulations(); got != 1 {
		t.Fatalf("resume simulated %d times, want 1 (bad cell only)", got)
	}
}

// TestMaxCyclesFailsInOneAttempt checks the per-job cycle bound: a job
// that cannot finish inside its own MaxCycles fails after one attempt,
// and running it leaves the caller's job config untouched.
func TestMaxCyclesFailsInOneAttempt(t *testing.T) {
	eng := NewEngine()
	job := Job{Workload: "astar", Config: sim.Config{
		Policy: sim.NonSecure, Instructions: 6_000, NoWarmup: true, MaxCycles: 64}}
	want := job.Config
	jr := eng.RunJob(job)
	if jr.Err == nil {
		t.Fatal("run succeeded under a 64-cycle budget")
	}
	if got := eng.Simulations(); got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}
	if !reflect.DeepEqual(job.Config, want) {
		t.Fatalf("RunJob mutated the caller's job config: %+v", job.Config)
	}
}

// TestPanicQuarantine runs a cell whose executor panics, a model bug: the
// pool must survive, the job must come back quarantined (not
// plain-failed) with a diagnostic dump, and the run's status must record
// the quarantine with that dump.
func TestPanicQuarantine(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()[:1]
	jobs[0].Kind = kindModel

	eng := NewEngine()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	eng.RegisterCell(kindModel, panickingCell)

	results := eng.Run(jobs)
	r := results[0]
	if !r.Quarantined || r.Err == nil {
		t.Fatalf("want quarantined result, got %+v", r)
	}
	if got := eng.Simulations(); got != 1 {
		t.Fatalf("quarantined job simulated %d times, want 1", got)
	}
	if len(Failed(results)) != 0 {
		t.Fatal("quarantined result leaked into Failed()")
	}
	if qs := Quarantined(results); len(qs) != 1 {
		t.Fatalf("Quarantined() returned %d results, want 1", len(qs))
	}

	// The dump carries the evidence: job identity, panic value, stack.
	if r.DumpPath == "" {
		t.Fatal("no quarantine dump written")
	}
	data, err := os.ReadFile(r.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Key   string `json:"key"`
		Panic string `json:"panic"`
		Stack string `json:"stack"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump unparseable: %v", err)
	}
	if dump.Key != r.Key || !strings.Contains(dump.Panic, "model bug in model:astar") || dump.Stack == "" {
		t.Fatalf("dump missing evidence: %+v", dump)
	}

	// The run's status separates quarantined from failed.
	st := NewStatus("test", results)
	if _, f, q := st.Counts(); f != 0 || q != 1 {
		t.Fatalf("status counts: failed=%d quarantined=%d, want 0/1", f, q)
	}
	if rec := st.Jobs[0]; rec.Status != StatusQuarantined || rec.Dump != r.DumpPath {
		t.Fatalf("status row: %+v, want quarantined with dump %s", rec, r.DumpPath)
	}
}

// TestCacheBypassDegradation yanks the cache's shard directories out from
// under the engine (plain files where directories must go, so every Put
// fails): after a few consecutive write failures the engine must degrade
// to cache-bypass mode and every simulation must still succeed.
func TestCacheBypassDegradation(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocked := map[string]bool{}
	for _, j := range jobs {
		sh := mustKey(t, j)[:2]
		if !blocked[sh] {
			blocked[sh] = true
			if err := os.WriteFile(filepath.Join(dir, sh), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	var buf strings.Builder
	eng := NewEngine()
	eng.Workers = 1
	eng.Cache = cache
	eng.Reporter = NewReporter(&buf)
	results := eng.Run(jobs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s failed because the cache was unwritable: %v", r.Job, r.Err)
		}
	}
	if !eng.CacheBypassed() {
		t.Fatal("engine never degraded to cache-bypass")
	}
	if !strings.Contains(buf.String(), "bypassing") {
		t.Fatalf("no bypass warning surfaced:\n%s", buf.String())
	}
}

// TestPoolConcurrency hammers the pool with more workers than jobs and
// duplicate keys — the shape the -race CI job verifies.
func TestPoolConcurrency(t *testing.T) {
	g := smallGrid()
	jobs := g.Jobs()
	jobs = append(jobs, g.Jobs()...) // duplicate keys race on the memo
	eng := NewEngine()
	eng.Workers = 16
	eng.Reporter = NewReporter(io.Discard)
	results := eng.Run(jobs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Job, r.Err)
		}
	}
	// Order invariant: results[i] corresponds to jobs[i].
	for i := range jobs {
		if results[i].Key != mustKey(t, jobs[i]) {
			t.Fatalf("result %d out of order", i)
		}
	}
	// Duplicate halves must agree exactly.
	n := len(jobs) / 2
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(results[i].Result, results[i+n].Result) {
			t.Fatalf("duplicate job %s diverged", jobs[i])
		}
	}
}
