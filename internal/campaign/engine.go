package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xrand"
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
	// Manifest, when non-nil, receives per-job status updates; each
	// completion is journaled with a single appended line.
	Manifest *Manifest
	// Reporter, when non-nil, streams completed/total + ETA as jobs
	// finish.
	Reporter *Reporter
	// Faults, when non-nil, is the chaos-test fault schedule. Each job
	// derives a child injector keyed by its cache key, so which worker
	// picks up a job never changes the faults it sees.
	Faults *faultinject.Injector
	// Trace, when non-nil, emits one span tree per job — lease →
	// cache-probe → simulate → verify → journal-append —
	// into its obs.Sink. Span identities are content-derived from the
	// job's cache key, so the canonical span stream is byte-identical
	// across worker counts; a nil tracer costs one nil check per stage
	// and zero allocations (pinned by the obs benchmarks).
	Trace *obs.Tracer

	mu    sync.Mutex
	memo  map[string]memoVal
	cells map[CellKind]CellFunc
	// openSpans parks each in-flight job's open root span under its cache
	// key until the driver (Run / RunJob) collects it with takeSpan. The
	// side channel exists so runJob can return a JobResult that carries no
	// wall-clock-derived data at all — spans embed wall stamps, and a
	// result free of them stays usable in hash/identity derivations
	// downstream (fabric completion entries) without tripping detertaint.
	openSpans map[string]*obs.Span

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
// The sim.Result half feeds the shared reporting surfaces (manifest rows,
// status tables); kind-specific output goes in the returned JSON payload.
type CellFunc func(job Job) (sim.Result, json.RawMessage, error)

// NewEngine returns a memory-only engine with default pool sizing; callers
// attach Cache / Manifest / Reporter as needed.
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
func (e *Engine) runAttempt(job Job, cfg sim.Config, faults *faultinject.Injector) (val memoVal, err error) {
	defer func() {
		//simlint:allow errdiscipline -- panic isolation boundary: a worker panic becomes a quarantined JobResult with a diagnostic dump, the pool survives
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	switch faults.Check(faultinject.SiteWorkerExec) {
	case faultinject.KindError:
		return memoVal{}, fmt.Errorf("campaign: worker executing %s: %w", job, faultinject.ErrInjected)
	case faultinject.KindPanic:
		//simlint:allow errdiscipline -- deliberate injected fault: the chaos suite proves this panic is recovered and quarantined, never escapes the pool
		panic(fmt.Sprintf("faultinject: injected worker panic for %s", job))
	default:
		// KindNone and kinds scheduled for other sites: run normally.
	}
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

// Backoff returns the delay before retry attempt n (1-based) of the
// operation keyed by key: exponential in the attempt with up to 100%
// jitter, all derived from (key, attempt) through xrand — so two runs
// back off identically no matter how goroutines are scheduled. The
// fabric worker uses it for lease-wait and heartbeat retry pacing, keyed
// by the worker id, so a fleet of workers hammering one coordinator
// desynchronizes deterministically.
func Backoff(key string, attempt int, base time.Duration) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	const maxBackoff = 2 * time.Second
	d := base << uint(attempt-1)
	if d > maxBackoff {
		d = maxBackoff
	}
	r := xrand.New(xrand.Hash64(keySeed(key) ^ uint64(attempt)))
	return d + time.Duration(r.Uint64n(uint64(d)))
}

// keySeed folds a cache key into an xrand seed (FNV-1a 64).
func keySeed(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// diagRingCap is how many trailing trace events each simulation retains
// for a potential quarantine dump.
const diagRingCap = 256

// quarantineDirName is the dump directory under the cache root.
const quarantineDirName = "quarantine"

// QuarantineDir returns the quarantine dump directory for a cache root.
func QuarantineDir(cacheDir string) string {
	return filepath.Join(cacheDir, quarantineDirName)
}

// QuarantineDump is the diagnostic record written for a recovered panic:
// enough to reproduce (job + config), see where the simulation was (last
// trace events), and what it had counted (partial stats) — without
// rerunning anything. `campaign replay` loads one of these and re-runs
// the job under a full-depth tracer (see Replay).
type QuarantineDump struct {
	Job     Job               `json:"job"`
	Key     string            `json:"key"`
	Panic   string            `json:"panic"`
	Stack   string            `json:"stack"`
	Trace   []trace.Event     `json:"trace,omitempty"`
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// writeQuarantineDump persists the dump, returning its path ("" if no
// cache dir is attached or the write failed — quarantine still proceeds).
func (e *Engine) writeQuarantineDump(job Job, key string, pe *PanicError, ring *trace.Ring, col *sim.Metrics) string {
	if e.Cache == nil {
		return ""
	}
	dump := QuarantineDump{Job: job, Key: key, Panic: pe.Value, Stack: pe.Stack}
	if ring != nil {
		dump.Trace = ring.Events()
	}
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

// stashSpan parks an in-flight job's open root span for the driver.
func (e *Engine) stashSpan(key string, sp *obs.Span) {
	if sp == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.openSpans == nil {
		e.openSpans = make(map[string]*obs.Span)
	}
	e.openSpans[key] = sp
}

// takeSpan collects (and forgets) the open root span runJob parked for
// key. Nil when the engine has no tracer, or the job never keyed.
func (e *Engine) takeSpan(key string) *obs.Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	sp := e.openSpans[key]
	delete(e.openSpans, key)
	return sp
}

// RunJob executes a single job through the memo and cache and returns the
// full JobResult — including the custom-kind Aux payload, quarantine
// state, and attempt count that RunOne flattens away. The fabric worker
// runs leased cells through this entry point so a completion message can
// carry everything the coordinator journals.
//
// The returned result carries no Elapsed measurement and no span handle:
// keeping wall-clock-derived values out of this value means everything
// built from it — fabric completion messages, cache entries rebuilt from
// Result/Aux — stays free of wall taint (detertaint tracks this
// transitively). Batch callers that want per-job wall cost stamp it
// themselves, as Run does.
func (e *Engine) RunJob(job Job) JobResult {
	r := e.runJob(job)
	e.takeSpan(r.Key).End()
	return r
}

// runJob executes one job. The job's root trace span is deliberately NOT
// part of the return value — spans carry wall-clock stamps, and a tainted
// span riding in (or alongside) the result would poison every downstream
// identity derivation for the taint analysis. It is parked under the
// job's key instead; the driver collects it with takeSpan, appends its
// journal stage, and ends it.
func (e *Engine) runJob(job Job) JobResult {
	key, kerr := job.Key()
	if kerr != nil {
		return JobResult{Job: job, Err: kerr}
	}
	// One trace per cell, rooted at the content key: the span tree below
	// (lease → cache-probe → simulate → verify) is identical across
	// worker counts because every identity derives from key and stage
	// name, never from scheduling. The root is left open here — Run (or
	// RunOne) ends it after the journal-append stage. The e.Trace != nil
	// guard keeps job.String() off the untraced hot path (it allocates).
	var root *obs.Span
	if e.Trace != nil {
		root = e.Trace.Trace(job.String(), key)
		root.Child("lease").End()
		e.stashSpan(key, root)
	}
	probe := root.Child("cache-probe")
	val, hit := e.lookup(key)
	probe.SetAttr("hit", strconv.FormatBool(hit))
	probe.End()
	if hit {
		return JobResult{Job: job, Key: key, Result: val.res, Aux: val.aux, Cached: true}
	}
	faults := e.Faults.Child(key)
	cfg := job.Config
	// Every fresh simulation runs instrumented so the cached entry
	// carries the full counter snapshot (Result.Metrics). Counter
	// bindings are free on the hot path and no sampler is attached,
	// so this does not slow the job or change its outcome.
	cfg.Metrics = &sim.Metrics{}
	// A small trace ring rides along purely as quarantine evidence;
	// it observes, never alters, the simulation.
	ring := trace.NewRing(diagRingCap)
	if cfg.Trace == nil {
		cfg.Trace = ring
	}
	cfg.Faults = faults
	e.sims.Add(1)
	sp := root.Child("simulate")
	val, err := e.runAttempt(job, cfg, faults)
	var pe *PanicError
	switch {
	case err == nil:
		sp.SetAttr("outcome", "ok")
	case errors.As(err, &pe):
		sp.SetAttr("outcome", "panic")
	default:
		sp.SetAttr("outcome", "error")
	}
	sp.End()
	// The error is not wrapped with the job name: every consumer
	// (reporter, manifest, CLI failure listing) prints jr.Job alongside.
	jr := JobResult{Job: job, Key: key, Attempts: 1, Err: err}
	if pe != nil {
		// A panic is an engine/model fault, not a bad cell: quarantine
		// it with the evidence.
		root.SetAttr("quarantined", "true")
		jr.Quarantined = true
		jr.DumpPath = e.writeQuarantineDump(job, key, pe, ring, cfg.Metrics)
		return jr
	}
	if err != nil {
		return jr
	}
	jr.Result = val.res
	jr.Aux = val.aux
	// "verify" is the write-through stage: the checksummed cache entry is
	// the artifact whose integrity fsck later re-verifies.
	verify := root.Child("verify")
	serr := e.store(job, key, val)
	verify.End()
	if serr != nil {
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
// slice is deterministic for a fixed grid. The manifest, when attached,
// is reconciled and compacted before execution, journaled line-by-line as
// jobs complete, and compacted again at the end; Run never aborts on
// individual job failures — inspect JobResult.Err/Quarantined (or
// Failed/Quarantined on the returned slice) for the per-cell outcomes.
func (e *Engine) Run(jobs []Job) []JobResult {
	if e.Trace != nil && e.Faults != nil {
		// Fault events land in the same timeline as the engine stages:
		// one instant span per fired fault, keyed on the event's own
		// content (site/kind/hit count), which the schedule fixes
		// deterministically regardless of worker interleaving.
		e.Faults.SetObserver(func(ev faultinject.Event) {
			e.Trace.Instant("fault", ev.String(),
				obs.Attr{K: "site", V: ev.Site.String()},
				obs.Attr{K: "kind", V: ev.Kind.String()},
				obs.Attr{K: "hit", V: strconv.FormatUint(ev.Hit, 10)})
		})
	}
	if e.Manifest != nil {
		e.Manifest.Reconcile(e.Manifest.Grid, jobs)
		_ = e.Manifest.Save()
	}
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
				jr := e.runJob(jobs[i])
				sp := e.takeSpan(jr.Key)
				jr.Elapsed = time.Since(start)
				results[i] = jr
				if e.Manifest != nil {
					jsp := sp.Child("journal-append")
					merr := e.Manifest.Append(jr)
					jsp.End()
					if merr != nil && e.Reporter != nil {
						e.Reporter.Warn(fmt.Sprintf("manifest append failed for %s: %v", jr.Job, merr))
					}
				}
				sp.End()
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
	if e.Manifest != nil {
		_ = e.Manifest.Save()
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
