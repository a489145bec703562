package campaign

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
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
	resumed.Manifest = NewManifest(dir, "test")
	results := resumed.Run(jobs)
	if n := len(Failed(results)); n != 0 {
		t.Fatalf("%d jobs failed on resume", n)
	}
	if got, want := resumed.Simulations(), int64(len(jobs)-len(half)); got != want {
		t.Fatalf("resumed run simulated %d cells, want exactly the %d missing ones", got, want)
	}
	if _, done, failed, _ := resumed.Manifest.Counts(); done != len(jobs) || failed != 0 {
		t.Fatalf("manifest after resume: done=%d failed=%d, want %d/0", done, failed, len(jobs))
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
	eng.Manifest = NewManifest(dir, "test")
	results := eng.Run(jobs)

	failed := Failed(results)
	if len(failed) != 1 || failed[0].Job.Workload != "no-such-workload" {
		t.Fatalf("failed set: %+v", failed)
	}
	if failed[0].Attempts != 1 {
		t.Fatalf("failed job attempted %d times, want 1", failed[0].Attempts)
	}
	for _, r := range results {
		if r.Job.Workload != "no-such-workload" && r.Err != nil {
			t.Fatalf("good cell %s failed alongside the bad one: %v", r.Job, r.Err)
		}
	}
	if _, done, failedN, _ := eng.Manifest.Counts(); done != len(jobs)-1 || failedN != 1 {
		t.Fatalf("manifest: done=%d failed=%d", done, failedN)
	}

	// The manifest survives the process: load it back like `campaign
	// status` would.
	loaded, ok := LoadManifest(dir)
	if !ok {
		t.Fatal("manifest not persisted")
	}
	if fails := loaded.Failures(); len(fails) != 1 || fails[0].Workload != "no-such-workload" {
		t.Fatalf("persisted failures: %+v", fails)
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
	jr := eng.runJob(job)
	if jr.Err == nil {
		t.Fatal("run succeeded under a 64-cycle budget")
	}
	if jr.Attempts != 1 || eng.Simulations() != 1 {
		t.Fatalf("attempts = %d, simulations = %d, want 1 each", jr.Attempts, eng.Simulations())
	}
	if !reflect.DeepEqual(job.Config, want) {
		t.Fatalf("runJob mutated the caller's job config: %+v", job.Config)
	}
}

// TestPanicQuarantine injects a worker panic: the pool must survive, the
// job must come back quarantined (not plain-failed) with a
// diagnostic dump, and the manifest must record the quarantine.
func TestPanicQuarantine(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()[:1]

	eng := NewEngine()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	eng.Manifest = NewManifest(dir, "test")
	eng.Faults = faultinject.Plan("panic-test").
		Schedule(faultinject.SiteWorkerExec, faultinject.KindPanic, 1)

	results := eng.Run(jobs)
	r := results[0]
	if !r.Quarantined || r.Err == nil {
		t.Fatalf("want quarantined result, got %+v", r)
	}
	if r.Attempts != 1 {
		t.Fatalf("quarantined job attempted %d times, want 1", r.Attempts)
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
	if dump.Key != r.Key || !strings.Contains(dump.Panic, "injected worker panic") || dump.Stack == "" {
		t.Fatalf("dump missing evidence: %+v", dump)
	}

	// The manifest separates quarantined from failed.
	if _, _, f, q := eng.Manifest.Counts(); f != 0 || q != 1 {
		t.Fatalf("manifest counts: failed=%d quarantined=%d, want 0/1", f, q)
	}
	qrecs := eng.Manifest.Quarantined()
	if len(qrecs) != 1 || qrecs[0].Dump != r.DumpPath {
		t.Fatalf("manifest quarantine records: %+v", qrecs)
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

// TestTruncatedManifestResume kills the journal mid-append (final line
// torn in half, the cell's cache entry gone) and resumes: the load must
// drop exactly the torn record, and the rerun must re-simulate only that
// one cell.
func TestTruncatedManifestResume(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()[:3]

	eng := NewEngine()
	eng.Workers = 1
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	eng.Manifest = NewManifest(dir, "test")
	if n := len(Failed(eng.Run(jobs))); n != 0 {
		t.Fatalf("%d jobs failed in setup run", n)
	}

	// Tear the final journal line as a mid-write kill would, and delete
	// that cell's cache entry so the record loss actually costs a rerun.
	path := ManifestPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte{'\n'})
	last := lines[len(lines)-1]
	var jl struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(last, &jl); err != nil || len(jl.Key) < 2 {
		t.Fatalf("could not parse final journal line %q: %v", last, err)
	}
	torn := append(bytes.Join(lines[:len(lines)-1], []byte{'\n'}), '\n')
	torn = append(torn, last[:len(last)/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, jl.Key[:2], jl.Key+".json")); err != nil {
		t.Fatal(err)
	}

	loaded, ok := LoadManifest(dir)
	if !ok {
		t.Fatal("truncated manifest failed to load")
	}
	if loaded.Dropped() != 1 {
		t.Fatalf("dropped %d journal lines, want exactly the torn one", loaded.Dropped())
	}
	if _, done, _, _ := loaded.Counts(); done != len(jobs)-1 {
		t.Fatalf("done=%d after truncation, want %d", done, len(jobs)-1)
	}

	resumed := NewEngine()
	resumed.Workers = 1
	resumed.Cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Manifest = loaded
	if n := len(Failed(resumed.Run(jobs))); n != 0 {
		t.Fatalf("%d jobs failed on resume", n)
	}
	if got := resumed.Simulations(); got != 1 {
		t.Fatalf("resume simulated %d cells, want only the torn one", got)
	}
	if p, done, f, q := resumed.Manifest.Counts(); p != 0 || done != len(jobs) || f != 0 || q != 0 {
		t.Fatalf("manifest after resume: pending=%d done=%d failed=%d quarantined=%d", p, done, f, q)
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
