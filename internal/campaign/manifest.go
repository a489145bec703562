package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultinject"
	"repro/sim"
)

// Job statuses recorded in the manifest.
const (
	StatusPending = "pending"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusQuarantined marks a worker panic: an engine/model fault, not
	// a bad cell config. `campaign status` surfaces these separately so
	// operators can tell the two apart at a glance.
	StatusQuarantined = "quarantined"
)

// JobRecord is one job's row in the manifest.
type JobRecord struct {
	Workload string     `json:"workload"`
	Policy   sim.Policy `json:"policy"`
	Variant  string     `json:"variant,omitempty"`
	Seed     uint64     `json:"seed"`
	Status   string     `json:"status"`
	Attempts int        `json:"attempts,omitempty"`
	Cached   bool       `json:"cached,omitempty"`
	Err      string     `json:"err,omitempty"`
	Cycles   uint64     `json:"cycles,omitempty"`
	IPC      float64    `json:"ipc,omitempty"`
	MS       int64      `json:"ms,omitempty"` // wall-clock milliseconds
	// Dump is the quarantine diagnostic dump path (panics only).
	Dump string `json:"dump,omitempty"`
}

// Manifest records a campaign's identity and per-job status as an
// append-only JSONL journal (manifest.jsonl at the cache root): a header
// line identifying the grid, then one line per job outcome, last writer
// wins. Appending a single line per finished job makes the manifest
// crash-tolerant by construction — a process killed mid-write leaves at
// most one torn final line, which replay drops, so the run resumes
// re-simulating only the cell whose record was lost. Save compacts the
// journal (atomic temp file + rename).
type Manifest struct {
	Grid string
	Jobs map[string]*JobRecord // keyed by cache key

	// Faults injects append faults for chaos tests (nil = disabled).
	Faults *faultinject.Injector

	mu      sync.Mutex
	path    string
	journal *os.File
	dropped int // torn journal lines discarded during load
}

// journalHeader is the first line of the journal.
type journalHeader struct {
	Manifest int    `json:"manifest"` // journal format version
	Grid     string `json:"grid"`
	Schema   int    `json:"schema"`
}

// journalLine is one job-outcome line.
type journalLine struct {
	Key string     `json:"key"`
	Rec *JobRecord `json:"rec"`
}

// ManifestPath returns the manifest journal location for a cache dir.
func ManifestPath(cacheDir string) string {
	return filepath.Join(cacheDir, "manifest.jsonl")
}

// NewManifest creates an empty manifest that saves to the given cache dir.
func NewManifest(cacheDir, grid string) *Manifest {
	return &Manifest{Grid: grid, Jobs: make(map[string]*JobRecord), path: ManifestPath(cacheDir)}
}

// LoadManifest reads the manifest from a cache dir; ok=false if none
// exists or its header is unreadable (in which case it is simply rebuilt).
// Torn record lines — the signature of a process killed mid-append — are
// dropped and counted (see Dropped): the affected cell just reruns.
func LoadManifest(cacheDir string) (*Manifest, bool) {
	path := ManifestPath(cacheDir)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	m := &Manifest{Jobs: make(map[string]*JobRecord), path: path}
	sawHeader := false
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !sawHeader {
			var h journalHeader
			if json.Unmarshal(line, &h) != nil || h.Manifest == 0 {
				return nil, false // header torn or foreign: rebuild
			}
			m.Grid = h.Grid
			sawHeader = true
			continue
		}
		var jl journalLine
		if json.Unmarshal(line, &jl) != nil || jl.Key == "" || jl.Rec == nil {
			m.dropped++
			continue
		}
		m.Jobs[jl.Key] = jl.Rec
	}
	if !sawHeader {
		return nil, false
	}
	return m, true
}

// Dropped returns how many torn journal lines the load discarded.
func (m *Manifest) Dropped() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// Reconcile registers every job of a new run: jobs not yet present (or
// previously failed/quarantined) become pending; jobs already done are
// left alone. Jobs whose config cannot be canonicalized are skipped here
// — the engine reports them as failed results.
func (m *Manifest) Reconcile(grid string, jobs []Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Grid = grid
	for _, j := range jobs {
		key, err := j.Key()
		if err != nil {
			continue
		}
		if rec, ok := m.Jobs[key]; ok && rec.Status == StatusDone {
			continue
		}
		rc := j.Config.Resolved()
		m.Jobs[key] = &JobRecord{
			Workload: j.Workload,
			Policy:   rc.Policy,
			Variant:  j.Variant,
			Seed:     rc.Seed,
			Status:   StatusPending,
		}
	}
}

// recordLocked builds and stores the in-memory row for one outcome,
// returning it. Caller holds m.mu.
func (m *Manifest) recordLocked(r JobResult) *JobRecord {
	rc := r.Job.Config.Resolved()
	rec := &JobRecord{
		Workload: r.Job.Workload,
		Policy:   rc.Policy,
		Variant:  r.Job.Variant,
		Seed:     rc.Seed,
		Status:   StatusDone,
		Attempts: r.Attempts,
		Cached:   r.Cached,
		Cycles:   r.Result.Cycles,
		IPC:      r.Result.IPC,
		MS:       r.Elapsed.Milliseconds(),
	}
	if r.Err != nil {
		rec.Status = StatusFailed
		rec.Err = r.Err.Error()
	}
	if r.Quarantined {
		rec.Status = StatusQuarantined
		rec.Dump = r.DumpPath
	}
	m.Jobs[r.Key] = rec
	return rec
}

// Record updates one job's outcome in memory only (Append also persists).
func (m *Manifest) Record(r JobResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recordLocked(r)
}

// Append updates one job's outcome and appends it to the journal — a
// single O_APPEND write, so a crash can tear at most the final line.
func (m *Manifest) Append(r JobResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.recordLocked(r)
	if m.path == "" {
		return nil // in-memory manifest (no cache dir)
	}
	line, err := json.Marshal(journalLine{Key: r.Key, Rec: rec})
	if err != nil {
		return fmt.Errorf("campaign: encoding manifest line: %w", err)
	}
	line = append(line, '\n')
	switch m.Faults.Check(faultinject.SiteManifestAppend) {
	case faultinject.KindError:
		return fmt.Errorf("campaign: manifest append: %w", faultinject.ErrInjected)
	case faultinject.KindTruncate:
		// Simulated mid-write kill: half a line, no newline. Replay must
		// drop it and rerun only this cell.
		line = line[:len(line)/2]
	default:
		// KindNone and kinds scheduled for other sites: append proceeds.
	}
	if err := m.appendLocked(line); err != nil {
		return fmt.Errorf("campaign: manifest append: %w", err)
	}
	return nil
}

// appendLocked writes one raw line, lazily opening the journal (and
// writing the header when the journal is new). Caller holds m.mu.
func (m *Manifest) appendLocked(line []byte) error {
	if m.journal == nil {
		st, statErr := os.Stat(m.path)
		fresh := statErr != nil || st.Size() == 0
		f, err := os.OpenFile(m.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		m.journal = f
		if fresh {
			hdr, err := json.Marshal(journalHeader{Manifest: 1, Grid: m.Grid, Schema: SchemaVersion})
			if err != nil {
				return err
			}
			if _, err := m.journal.Write(append(hdr, '\n')); err != nil {
				return err
			}
		} else if st != nil && st.Size() > 0 {
			// If the previous process died mid-append, the journal ends in
			// a torn fragment with no newline. Terminate it so the fragment
			// stays a single droppable line instead of swallowing the next
			// record appended after it.
			var last [1]byte
			if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
				if _, err := m.journal.Write([]byte{'\n'}); err != nil {
					return err
				}
			}
		}
	}
	_, err := m.journal.Write(line)
	return err
}

// Save compacts the journal atomically (temp file + rename): the header
// plus one line per job in sorted key order. The engine calls it at run
// start (after Reconcile) and at run end; between those points Append
// keeps the journal current line by line.
func (m *Manifest) Save() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.path == "" {
		return nil // in-memory manifest (no cache dir)
	}
	var buf bytes.Buffer
	hdr, err := json.Marshal(journalHeader{Manifest: 1, Grid: m.Grid, Schema: SchemaVersion})
	if err != nil {
		return fmt.Errorf("campaign: encoding manifest: %w", err)
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	keys := make([]string, 0, len(m.Jobs))
	for key := range m.Jobs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		line, err := json.Marshal(journalLine{Key: key, Rec: m.Jobs[key]})
		if err != nil {
			return fmt.Errorf("campaign: encoding manifest: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	// The rename below replaces the inode the open journal handle points
	// at; close it so the next Append reopens the compacted file.
	if m.journal != nil {
		m.journal.Close()
		m.journal = nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(m.path), ".manifest.tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: saving manifest: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: saving manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: saving manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), m.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: saving manifest: %w", err)
	}
	return nil
}

// Close releases the journal handle (flushing is the OS's job: every
// append was a direct write).
func (m *Manifest) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.journal == nil {
		return nil
	}
	err := m.journal.Close()
	m.journal = nil
	return err
}

// Counts returns the number of jobs per status.
func (m *Manifest) Counts() (pending, done, failed, quarantined int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	//simlint:ordered -- integer status counting is commutative
	for _, rec := range m.Jobs {
		switch rec.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusQuarantined:
			quarantined++
		default:
			pending++
		}
	}
	return
}

// lessRecord is the canonical row order: (workload, policy, variant,
// seed).
func lessRecord(a, b *JobRecord) bool {
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
}

// sortRecords orders rows by (workload, policy, variant, seed) for stable
// output.
func sortRecords(out []*JobRecord) {
	sort.Slice(out, func(i, j int) bool { return lessRecord(out[i], out[j]) })
}

// Records returns every job record, sorted for stable output
// (`campaign status -v`).
func (m *Manifest) Records() []*JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*JobRecord, 0, len(m.Jobs))
	for _, rec := range m.Jobs {
		out = append(out, rec)
	}
	sortRecords(out)
	return out
}

// byStatus returns the records with the given status, sorted.
func (m *Manifest) byStatus(status string) []*JobRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*JobRecord
	for _, rec := range m.Jobs {
		if rec.Status == status {
			out = append(out, rec)
		}
	}
	sortRecords(out)
	return out
}

// Failures returns the failed job records, sorted for stable output.
func (m *Manifest) Failures() []*JobRecord { return m.byStatus(StatusFailed) }

// Quarantined returns the quarantined job records, sorted for stable
// output.
func (m *Manifest) Quarantined() []*JobRecord { return m.byStatus(StatusQuarantined) }
