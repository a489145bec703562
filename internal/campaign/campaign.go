// Package campaign is the experiment-grid engine behind paperbench and the
// campaign command: it expands a declarative grid of cells (workload ×
// policy × config overrides × seed) into independent jobs, executes them on
// a bounded worker pool, and writes every result through a
// content-addressed on-disk cache so an interrupted, tweaked, or partially
// failed campaign only re-simulates the cells that are actually missing.
//
// The moving parts:
//
//   - Job / Key: one simulation cell and its content-addressed identity
//     (hash of workload + canonicalized resolved sim.Config + schema
//     version). Two jobs with the same key are guaranteed to produce the
//     same sim.Result, so a key is safe to use as a cache address.
//   - Cache: JSON result files under a cache directory, sharded by key
//     prefix, written atomically (temp file + rename).
//   - Manifest: per-job status (pending / done / failed) persisted next to
//     the cache for `campaign status` and resumability.
//   - Engine: the worker pool. Results come back in job order regardless
//     of scheduling, a failed job is recorded as failed instead of
//     panicking, and a Reporter streams completed/total + ETA to stderr.
//   - Grid: the declarative cell grid plus the named grids the CLI
//     exposes, seed-sweep parsing, and mean/geomean aggregation via
//     internal/stats.
//
// internal/experiments.Runner delegates its per-run memoization to an
// Engine, so a paperbench pass and a campaign run share one cache.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/sim"
)

// SchemaVersion is folded into every cache key. Bump it whenever the
// simulator's semantics change in a way that invalidates previously cached
// results (new policy behavior, changed defaults, new Result fields that
// matter downstream).
//
// Version 2: Result carries the final metric-registry snapshot
// (Result.Metrics) and the canonical Config JSON excludes the
// observability hooks (Trace, Metrics, SampleEvery).
//
// Version 3: the MSHR binds its full counter set (allocs, full, squashes
// joined merges and dropped), so cached Result.Metrics snapshots from
// earlier versions are missing keys.
//
// Version 4: cache entries carry a content checksum (Entry.Sum), the
// manifest became an append-only journal (manifest.jsonl), and sim.Config
// gained the keyed WatchdogWindow parameter.
const SchemaVersion = 4

// CellKind names a job's execution kind. The zero value ("") is a plain
// workload simulation, executed by sim.RunWorkload; any other kind is
// dispatched to the CellFunc registered for it on the engine (see
// Engine.RegisterCell). internal/specfuzz registers KindSpecFuzz cells this
// way: a fuzz cell is a first-class campaign cell — keyed, cached,
// journaled and resumable exactly like a simulation cell.
type CellKind string

// KindSim is the default cell kind: one sim.RunWorkload invocation.
const KindSim CellKind = ""

// Job is one campaign cell: by default a workload run under a fully
// specified configuration, or — when Kind is set — a registered custom
// cell whose kind-specific parameters travel in Cell. Variant is a
// human-readable label for the config override the job came from (empty
// for the grid's base config); it is reporting metadata only and does not
// contribute to the job's identity.
type Job struct {
	Workload string     `json:"workload"`
	Variant  string     `json:"variant,omitempty"`
	Config   sim.Config `json:"config"`
	// Kind selects the cell's executor ("" = workload simulation). It is
	// part of the cell's content-addressed identity.
	Kind CellKind `json:"kind,omitempty"`
	// Cell is the kind-specific cell payload (e.g. a serialized fuzz
	// gadget spec). It is hashed into the cache key byte-for-byte, so two
	// cells with different payloads never share a cache slot.
	Cell json.RawMessage `json:"cell,omitempty"`
}

// Key returns the job's content-addressed identity.
func (j Job) Key() (string, error) { return cellKey(j.Kind, j.Workload, j.Config, j.Cell) }

// String renders the job for progress lines and error messages.
func (j Job) String() string {
	s := j.Workload + "/" + string(j.Config.Resolved().Policy)
	if j.Kind != KindSim {
		s = string(j.Kind) + ":" + s
	}
	if j.Variant != "" {
		s += "/" + j.Variant
	}
	if j.Config.Seed > 1 {
		s += fmt.Sprintf("/seed%d", j.Config.Seed)
	}
	return s
}

// keyRecord is the canonical byte representation hashed into a key. The
// resolved config is embedded as a struct, so every field that influences
// the simulation participates in the hash with a fixed field order; the
// observability hooks (Trace, Metrics, SampleEvery) never change outcomes
// and are excluded — both via their json:"-" tags and by zeroing below, so
// a future tag regression cannot silently fork cache keys. Kind and Cell
// are omitted when empty, so every pre-existing simulation cell keeps the
// key it had before cell kinds existed.
type keyRecord struct {
	Schema   int             `json:"schema"`
	Workload string          `json:"workload"`
	Config   sim.Config      `json:"config"`
	Kind     CellKind        `json:"kind,omitempty"`
	Cell     json.RawMessage `json:"cell,omitempty"`
}

// Key returns the content-addressed cache key for running workload wl
// under cfg: a 128-bit hex digest of the workload name, the fully resolved
// configuration, and the cache schema version. Deriving the key from the
// *resolved* config means two call sites that build the same effective
// configuration through different code paths share a cache slot, and two
// configurations that differ in any simulated parameter (seed, policy,
// randomization overrides, window size, ...) never collide.
func Key(wl string, cfg sim.Config) (string, error) {
	return cellKey(KindSim, wl, cfg, nil)
}

// cellKey is Key generalized over cell kinds: the kind and its payload are
// hashed alongside the workload and resolved config.
func cellKey(kind CellKind, wl string, cfg sim.Config, cell json.RawMessage) (string, error) {
	rc := cfg.Resolved()
	rc.Trace = nil // observation-only; does not affect results
	rc.Metrics = nil
	rc.SampleEvery = 0
	rc.Faults = nil
	blob, err := json.Marshal(keyRecord{Schema: SchemaVersion, Workload: wl, Config: rc, Kind: kind, Cell: cell})
	if err != nil {
		// sim.Config is a plain struct of scalars and pointers today (and
		// Cell is pre-encoded JSON), so this is unreachable — but a future
		// field could make it real, and a bad cell must surface as a
		// failed job, not a dead pool.
		return "", fmt.Errorf("campaign: canonicalizing config for %s: %w", wl, err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:16]), nil
}

// JobResult is the outcome of one job execution.
type JobResult struct {
	Job    Job
	Key    string
	Result sim.Result
	// Aux is a custom cell kind's opaque result payload (nil for plain
	// simulation cells); it round-trips through the memo and disk cache
	// next to Result.
	Aux      json.RawMessage
	Err      error
	Cached   bool // served from the disk cache or in-memory memo
	Attempts int  // 1 when simulated, 0 for cache hits
	Elapsed  time.Duration
	// Quarantined marks a worker panic (an engine/model fault, not a bad
	// cell config): the panic was recovered and a diagnostic dump was
	// written to DumpPath.
	Quarantined bool
	DumpPath    string
}

// Failed reports whether the job failed. Quarantined jobs also count as
// failed; use Quarantined to tell "bad config" from "engine fault".
func (r JobResult) Failed() bool { return r.Err != nil }
