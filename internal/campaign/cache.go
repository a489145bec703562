package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/sim"
)

// Cache is the content-addressed on-disk result store. Each entry is one
// JSON file named <key>.json under a two-hex-character shard directory
// (<dir>/ab/abcdef....json), so even large campaigns keep directory sizes
// reasonable. Writes go through a temp file + rename, so a cache is never
// left with a torn entry after a crash or an interrupt, and every entry
// carries a content checksum verified on read — a corrupt entry (bit rot,
// hand edit, torn write that still renamed) is a logged miss, never a
// crash or a silently wrong result.
type Cache struct {
	dir string

	// Warn, when non-nil, receives one line per detected corrupt entry.
	Warn func(msg string)

	corrupt atomic.Int64
}

// Entry is the on-disk record: the job's identity metadata plus its full
// measurement, self-describing enough for `campaign export` to rebuild a
// report without re-expanding the original grid.
type Entry struct {
	Key      string     `json:"key"`
	Schema   int        `json:"schema"`
	Workload string     `json:"workload"`
	Policy   sim.Policy `json:"policy"`
	Seed     uint64     `json:"seed"`
	// Kind is the cell kind ("" = plain simulation); Aux is a custom
	// kind's opaque result payload. Both are covered by the checksum.
	Kind   CellKind        `json:"kind,omitempty"`
	Aux    json.RawMessage `json:"aux,omitempty"`
	Result sim.Result      `json:"result"`
	// Summary is the cell's headline derived metrics, duplicated out of
	// Result so `jq .summary` and `campaign inspect` can read a cell
	// without knowing the Result schema. The full counter snapshot lives
	// in Result.Metrics.
	Summary map[string]float64 `json:"summary,omitempty"`
	// Sum is the entry's content checksum: hex sha256 of the entry's
	// canonical JSON with Sum itself blank. Verified on every read.
	Sum string `json:"sum,omitempty"`
}

// checksum computes the entry's content checksum (over its canonical JSON
// with the Sum field blank).
func checksum(e Entry) (string, error) {
	e.Sum = ""
	blob, err := json.Marshal(e)
	if err != nil {
		return "", fmt.Errorf("campaign: checksumming cache entry: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Summarize extracts the headline per-cell metrics stored in Entry.Summary.
func Summarize(res sim.Result) map[string]float64 {
	return map[string]float64{
		"ipc":            res.IPC,
		"cycles":         float64(res.Cycles),
		"squash_pki":     res.SquashPKI,
		"l1_miss_rate":   res.L1MissRate,
		"mispredict":     res.MispredictRate,
		"traffic_total":  float64(res.Traffic.Total()),
		"wait_per_sq":    res.WaitPerSquash,
		"cleanup_per_sq": res.CleanupPerSquash,
	}
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: empty cache dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string { return entryPath(c.dir, key) }

// entryPath is where the entry for key lives under the cache root dir.
func entryPath(dir, key string) string {
	return filepath.Join(dir, key[:2], key+".json")
}

// Verify re-derives the entry's checksum and reports whether it matches.
// Entries written before SchemaVersion 4 have no Sum, but those fail the
// schema check first, so an empty Sum here means tampering.
func (e Entry) Verify() bool {
	want, err := checksum(e)
	return err == nil && e.Sum == want
}

// noteCorrupt counts and reports a corrupt entry.
func (c *Cache) noteCorrupt(path, why string) {
	c.corrupt.Add(1)
	if c.Warn != nil {
		c.Warn(fmt.Sprintf("corrupt cache entry %s (%s): treating as miss", path, why))
	}
}

// CorruptReads returns how many corrupt entries reads have detected.
func (c *Cache) CorruptReads() int64 { return c.corrupt.Load() }

// Get returns the cached entry for key, with ok=false on a miss. A
// corrupt entry — unparseable bytes, a checksum mismatch, an entry filed
// under the wrong key — is logged via Warn and counts as a miss, so the
// job is simply re-simulated and rewritten; corruption never crashes a
// campaign or serves a wrong result.
func (c *Cache) Get(key string) (Entry, bool) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		c.noteCorrupt(path, "unparseable")
		return Entry{}, false
	}
	if e.Schema != SchemaVersion {
		return Entry{}, false // foreign schema: a miss, not corruption
	}
	if e.Key != key {
		c.noteCorrupt(path, "key mismatch")
		return Entry{}, false
	}
	if !e.Verify() {
		c.noteCorrupt(path, "checksum mismatch")
		return Entry{}, false
	}
	return e, true
}

// Put stores the result of job under its key as a checksummed entry. aux
// is a custom cell kind's opaque payload (nil for plain simulation cells).
func (c *Cache) Put(job Job, res sim.Result, aux json.RawMessage) error {
	key, err := job.Key()
	if err != nil {
		return err
	}
	rc := job.Config.Resolved()
	e := Entry{
		Key:      key,
		Schema:   SchemaVersion,
		Workload: job.Workload,
		Policy:   rc.Policy,
		Seed:     rc.Seed,
		Kind:     job.Kind,
		Aux:      aux,
		Result:   res,
	}
	if job.Kind == KindSim {
		e.Summary = Summarize(res)
	}
	if e.Sum, err = checksum(e); err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: encoding cache entry: %w", err)
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("campaign: cache shard: %w", err)
	}
	if err := writeAtomic(path, "."+key+".tmp-*", data); err != nil {
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	return nil
}

// writeAtomic writes data to path through a temp file in path's
// directory, named from pattern as os.CreateTemp names it, and a rename:
// a reader sees the old file or the new one, never a torn one. A crash
// before the rename leaves the temp file, which fsck reports as an
// orphan.
func writeAtomic(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Entries returns every cached entry, sorted by (workload, policy, seed)
// for deterministic export output. Entries of other schema
// versions are skipped, but a damaged entry file — what Fsck reports as
// corrupt — fails the call, so an export is never silently short a cell.
func (c *Cache) Entries() ([]Entry, error) {
	sc, err := scanCache(c.dir)
	if err != nil {
		return nil, fmt.Errorf("campaign: scanning cache: %w", err)
	}
	if n := len(sc.corrupt); n > 0 {
		f := sc.corrupt[0]
		return nil, fmt.Errorf("campaign: cache at %s has %d damaged entr(ies), first %s (%s); `campaign fsck -prune` removes them and their cells re-simulate",
			c.dir, n, f.Path, f.Reason)
	}
	entries := sc.clean
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Seed < b.Seed
	})
	return entries, nil
}

// Len returns the number of cached entries.
func (c *Cache) Len() (int, error) {
	entries, err := c.Entries()
	if err != nil {
		return 0, err
	}
	return len(entries), nil
}
