package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/faultinject"
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
	// Faults injects read/write faults for chaos tests (nil = disabled).
	Faults *faultinject.Injector

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
	Variant  string     `json:"variant,omitempty"`
	Seed     uint64     `json:"seed"`
	// Kind is the cell kind ("" = plain simulation); Aux is a custom
	// kind's opaque result payload. Both are covered by the checksum.
	Kind   CellKind        `json:"kind,omitempty"`
	Aux    json.RawMessage `json:"aux,omitempty"`
	Result sim.Result      `json:"result"`
	// Summary is the cell's headline derived metrics, duplicated out of
	// Result so `jq .summary` and the simscope inspector can read a cell
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

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Verify re-derives the entry's checksum and reports whether it matches.
// Entries written before SchemaVersion 4 have no Sum, but those fail the
// schema check first, so an empty Sum here means tampering. The fabric
// verifies every entry passed between a worker and the coordinator this
// way — a peer's entry is trusted only after its bytes re-hash clean.
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
	switch k := c.Faults.Check(faultinject.SiteCacheRead); k {
	case faultinject.KindError:
		return Entry{}, false // injected read error: a plain miss
	case faultinject.KindCorrupt:
		data = c.Faults.Mutate(k, data)
	default:
		// KindNone and kinds scheduled for other sites: read proceeds.
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

// NewEntry builds the checksummed cache entry for a finished job — the
// canonical on-disk (and on-wire) representation of one cell's outcome.
// The fabric sends these between workers and the coordinator; both sides
// re-verify the checksum before trusting the bytes.
func NewEntry(job Job, res sim.Result, aux json.RawMessage) (Entry, error) {
	key, err := job.Key()
	if err != nil {
		return Entry{}, err
	}
	rc := job.Config.Resolved()
	e := Entry{
		Key:      key,
		Schema:   SchemaVersion,
		Workload: job.Workload,
		Policy:   rc.Policy,
		Variant:  job.Variant,
		Seed:     rc.Seed,
		Kind:     job.Kind,
		Aux:      aux,
		Result:   res,
	}
	if job.Kind == KindSim {
		e.Summary = Summarize(res)
	}
	if e.Sum, err = checksum(e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Put stores the result of job under its key. aux is a custom cell kind's
// opaque payload (nil for plain simulation cells).
func (c *Cache) Put(job Job, res sim.Result, aux json.RawMessage) error {
	e, err := NewEntry(job, res, aux)
	if err != nil {
		return err
	}
	return c.PutEntry(e)
}

// PutEntry stores an already-built entry under its own key. The entry is
// re-verified first: a caller holding a corrupt entry (a damaged wire
// payload, a doctored file) gets an error instead of poisoning the store.
func (c *Cache) PutEntry(e Entry) error {
	if e.Schema != SchemaVersion {
		return fmt.Errorf("campaign: cache put %s: schema %d, want %d", e.Key, e.Schema, SchemaVersion)
	}
	if len(e.Key) < 2 || !e.Verify() {
		return fmt.Errorf("campaign: cache put %s: entry fails checksum verification", e.Key)
	}
	key := e.Key
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: encoding cache entry: %w", err)
	}
	switch k := c.Faults.Check(faultinject.SiteCacheWrite); k {
	case faultinject.KindError:
		return fmt.Errorf("campaign: cache write %s: %w", key, faultinject.ErrInjected)
	case faultinject.KindCorrupt, faultinject.KindTruncate:
		// Persist damaged bytes through the normal atomic path: the torn
		// entry must be caught by the read-side checksum, not by luck.
		data = c.Faults.Mutate(k, data)
	default:
		// KindNone and kinds scheduled for other sites: write proceeds.
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("campaign: cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	return nil
}

// Entries returns every cached entry, sorted by (workload, policy,
// variant, seed) for deterministic export output.
func (c *Cache) Entries() ([]Entry, error) {
	var entries []Entry
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != c.dir && d.Name() == quarantineDirName {
				return filepath.SkipDir // panic dumps, not result entries
			}
			return nil
		}
		if !strings.HasSuffix(path, ".json") {
			return nil
		}
		if filepath.Dir(path) == c.dir {
			return nil // manifest files live at the root
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil || e.Schema != SchemaVersion {
			return nil // skip torn/foreign files
		}
		if !e.Verify() {
			c.noteCorrupt(path, "checksum mismatch")
			return nil
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: scanning cache: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
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
