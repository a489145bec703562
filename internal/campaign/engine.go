package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/sim"
)

// Engine executes jobs with memoization, optional disk caching and
// bounded parallelism. The zero value is not ready to use; call NewEngine.
//
// Result lookup order for a job: in-memory memo → disk cache → simulate.
// Fresh results are written through to both layers, so a later engine (or
// a later process) pointed at the same cache directory starts warm.
//
// Each cell gets one attempt: every error it can return depends only on
// the job, so a second attempt would fail the same way. A failed cell is
// recorded as failed and re-attempted by the next run. Worker panics are
// recovered into quarantined results with a diagnostic dump instead of
// killing the pool; a cache directory that stops accepting writes
// degrades the engine to cache-bypass mode rather than spamming errors or
// failing jobs whose simulations succeeded.
type Engine struct {
	// Cache is the optional disk layer (nil → memory-only engine).
	Cache *Cache
	// Workers bounds the pool for Run (0 → runtime.GOMAXPROCS(0)). Each
	// job is an independent CPU-bound sim.RunWorkload, so one worker per
	// processor is the sweet spot.
	Workers int
	// Reporter, when non-nil, streams completed/total + ETA as jobs
	// finish.
	Reporter *Reporter

	mu    sync.Mutex
	memo  map[string]memoVal
	cells map[CellKind]CellFunc

	sims atomic.Int64

	cacheFails atomic.Int32 // consecutive cache-write failures
	cacheDown  atomic.Bool  // degraded to cache-bypass
}

// cacheFailThreshold is how many consecutive write failures flip the
// engine into cache-bypass mode.
const cacheFailThreshold = 3

// memoVal is one memoized cell outcome: the simulation measurement plus a
// custom cell kind's opaque payload.
type memoVal struct {
	res sim.Result
	aux json.RawMessage
}

// CellFunc executes one custom-kind cell. It must be deterministic in the
// job's identity fields (Workload, Config, Kind, Cell) — the engine caches
// its outcome under the job's content-addressed key, and a later run (or a
// parallel worker) may serve the cached copy instead of calling it again.
// The sim.Result half feeds the shared reporting surfaces (the run
// status, summary tables); kind-specific output goes in the returned JSON
// payload.
type CellFunc func(job Job) (sim.Result, json.RawMessage, error)

// NewEngine returns a memory-only engine with default pool sizing; callers
// attach Cache / Reporter as needed.
func NewEngine() *Engine {
	return &Engine{memo: make(map[string]memoVal)}
}

// RegisterCell installs the executor for a custom cell kind. Registering
// KindSim or a kind twice is a programmer error surfaced at job execution
// time, not here: jobs of an unregistered kind fail with a descriptive
// error rather than panicking a worker.
func (e *Engine) RegisterCell(kind CellKind, fn CellFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cells == nil {
		e.cells = make(map[CellKind]CellFunc)
	}
	e.cells[kind] = fn
}

// cellFunc looks up the registered executor for kind.
func (e *Engine) cellFunc(kind CellKind) (CellFunc, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn, ok := e.cells[kind]
	return fn, ok
}

// Simulations returns how many actual simulator invocations the engine
// has performed (cache and memo hits excluded) — the number the
// cache-determinism tests pin to zero on a warm rerun.
func (e *Engine) Simulations() int64 { return e.sims.Load() }

// CacheBypassed reports whether repeated write failures degraded the
// engine to cache-bypass mode.
func (e *Engine) CacheBypassed() bool { return e.cacheDown.Load() }

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) lookup(key string) (memoVal, bool) {
	e.mu.Lock()
	val, ok := e.memo[key]
	e.mu.Unlock()
	if ok {
		return val, true
	}
	if e.Cache != nil && !e.cacheDown.Load() {
		if entry, ok := e.Cache.Get(key); ok {
			val = memoVal{res: entry.Result, aux: entry.Aux}
			e.mu.Lock()
			e.memo[key] = val
			e.mu.Unlock()
			return val, true
		}
	}
	return memoVal{}, false
}

func (e *Engine) store(job Job, key string, val memoVal) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.memo[key] = val
	if e.Cache == nil || e.cacheDown.Load() {
		return nil
	}
	err := e.Cache.Put(job, val.res, val.aux)
	if err == nil {
		e.cacheFails.Store(0)
		return nil
	}
	// Graceful degradation: an unwritable cache dir (disk full, perms
	// yanked mid-run) must not fail jobs whose simulations succeeded.
	// After a few consecutive failures, stop touching the cache at all.
	if e.cacheFails.Add(1) >= cacheFailThreshold {
		if e.cacheDown.CompareAndSwap(false, true) && e.Reporter != nil {
			e.Reporter.Warn("cache keeps failing writes; bypassing it for the rest of the run (results stay in memory)")
		}
	}
	return err
}

// PanicError is a recovered worker panic: an engine or simulator-model
// fault, as opposed to a cell that merely returned an error.
type PanicError struct {
	Value string // the panic value, stringified
	Stack string // the goroutine stack at recovery
}

// Error renders the panic value (the stack lives in the quarantine dump).
func (e *PanicError) Error() string { return "worker panic: " + e.Value }

// runAttempt executes one cell attempt behind a panic isolation boundary:
// a panicking worker comes back as a *PanicError instead of tearing down
// the whole pool. Custom cell kinds dispatch to their registered CellFunc;
// the default kind is one sim.RunWorkload invocation.
func (e *Engine) runAttempt(job Job, cfg sim.Config) (val memoVal, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	if job.Kind != KindSim {
		fn, ok := e.cellFunc(job.Kind)
		if !ok {
			return memoVal{}, fmt.Errorf("campaign: no executor registered for cell kind %q (job %s)", job.Kind, job)
		}
		run := job
		run.Config = cfg
		res, aux, err := fn(run)
		return memoVal{res: res, aux: aux}, err
	}
	res, err := sim.RunWorkload(job.Workload, cfg)
	return memoVal{res: res}, err
}

// quarantineDirName is the dump directory under the cache root.
const quarantineDirName = "quarantine"

// QuarantineDir returns the quarantine dump directory for a cache root.
func QuarantineDir(cacheDir string) string {
	return filepath.Join(cacheDir, quarantineDirName)
}

// QuarantineDump is the diagnostic record written for a recovered panic:
// enough to reproduce (job + config) and what it had counted (partial
// stats) — without rerunning anything. The events leading up to the panic
// come from `campaign replay`, which loads one of these and re-runs the
// job deterministically under a full-depth tracer (see Replay).
type QuarantineDump struct {
	Job     Job               `json:"job"`
	Key     string            `json:"key"`
	Panic   string            `json:"panic"`
	Stack   string            `json:"stack"`
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// writeQuarantineDump persists the dump, returning its path ("" if no
// cache dir is attached or the write failed — quarantine still proceeds).
func (e *Engine) writeQuarantineDump(job Job, key string, pe *PanicError, col *sim.Metrics) string {
	if e.Cache == nil {
		return ""
	}
	dump := QuarantineDump{Job: job, Key: key, Panic: pe.Value, Stack: pe.Stack}
	if col != nil && col.Registry != nil {
		dump.Metrics = col.Registry.Snapshot().Counters
	}
	dir := QuarantineDir(e.Cache.Dir())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	data, err := json.MarshalIndent(dump, "", " ")
	if err != nil {
		return ""
	}
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	return path
}

// RunOne executes a single job through the memo and cache, returning
// whether the result was served from a cache layer.
func (e *Engine) RunOne(job Job) (res sim.Result, cached bool, err error) {
	r := e.RunJob(job)
	return r.Result, r.Cached, r.Err
}

// RunJob executes a single job through the memo and cache and returns the
// full JobResult — including the custom-kind Aux payload and quarantine
// state that RunOne flattens away. It carries no Elapsed measurement:
// batch callers that want per-job wall cost stamp it themselves, as Run
// does.
func (e *Engine) RunJob(job Job) JobResult {
	key, kerr := job.Key()
	if kerr != nil {
		return JobResult{Job: job, Err: kerr}
	}
	val, hit := e.lookup(key)
	if hit {
		return JobResult{Job: job, Key: key, Result: val.res, Aux: val.aux, Cached: true}
	}
	cfg := job.Config
	// Every fresh simulation runs instrumented so the cached entry
	// carries the full counter snapshot (Result.Metrics). Counter
	// bindings are free on the hot path and no sampler is attached,
	// so this does not slow the job or change its outcome.
	cfg.Metrics = &sim.Metrics{}
	e.sims.Add(1)
	val, err := e.runAttempt(job, cfg)
	// The error is not wrapped with the job name: every consumer
	// (reporter, run status, CLI failure listing) prints jr.Job alongside.
	jr := JobResult{Job: job, Key: key, Err: err}
	var pe *PanicError
	if errors.As(err, &pe) {
		// A panic is an engine/model fault, not a bad cell: quarantine
		// it with the evidence.
		jr.Quarantined = true
		jr.DumpPath = e.writeQuarantineDump(job, key, pe, cfg.Metrics)
		return jr
	}
	if err != nil {
		return jr
	}
	jr.Result = val.res
	jr.Aux = val.aux
	if serr := e.store(job, key, val); serr != nil {
		// A result that simulated fine but failed to persist is still a
		// usable result; surface the cache problem without failing the job.
		if e.Reporter != nil {
			e.Reporter.Warn(fmt.Sprintf("cache write failed for %s: %v", job, serr))
		}
	}
	return jr
}

// Run executes jobs on the worker pool and returns their results in job
// order (independent of scheduling), so aggregation over the returned
// slice is deterministic for a fixed grid. Run never aborts on
// individual job failures — inspect JobResult.Err/Quarantined (or
// Failed/Quarantined on the returned slice) for the per-cell outcomes.
func (e *Engine) Run(jobs []Job) []JobResult {
	if e.Reporter != nil {
		e.Reporter.Start(len(jobs))
	}
	results := make([]JobResult, len(jobs))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < e.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) {
					return
				}
				start := time.Now()
				jr := e.RunJob(jobs[i])
				jr.Elapsed = time.Since(start)
				results[i] = jr
				if e.Reporter != nil {
					e.Reporter.JobDone(jr)
				}
			}
		}()
	}
	wg.Wait()
	if e.Reporter != nil {
		e.Reporter.Finish()
	}
	return results
}

// Failed filters the plainly failed (non-quarantined) results out of a
// Run output.
func Failed(results []JobResult) []JobResult {
	var out []JobResult
	for _, r := range results {
		if r.Failed() && !r.Quarantined {
			out = append(out, r)
		}
	}
	return out
}

// Quarantined filters the quarantined results out of a Run output.
func Quarantined(results []JobResult) []JobResult {
	var out []JobResult
	for _, r := range results {
		if r.Quarantined {
			out = append(out, r)
		}
	}
	return out
}
