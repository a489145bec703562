package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/sim"
)

// Job statuses recorded in a run's status.
const (
	StatusDone   = "done"
	StatusFailed = "failed"
	// StatusQuarantined marks a worker panic: an engine/model fault, not
	// a bad cell config. `campaign status` surfaces these separately so
	// operators can tell the two apart at a glance.
	StatusQuarantined = "quarantined"
)

// JobRecord is one job's row in a run's status.
type JobRecord struct {
	Workload string     `json:"workload"`
	Policy   sim.Policy `json:"policy"`
	Seed     uint64     `json:"seed"`
	Status   string     `json:"status"`
	Cached   bool       `json:"cached,omitempty"`
	Err      string     `json:"err,omitempty"`
	IPC      float64    `json:"ipc,omitempty"`
	MS       int64      `json:"ms,omitempty"` // wall-clock milliseconds
	// Dump is the quarantine diagnostic dump path (panics only).
	Dump string `json:"dump,omitempty"`
}

// Status is a finished run's record: the grid it ran and one row per job,
// in job order. `campaign run` writes it once, after Engine.Run returns,
// and `campaign status` reads it. Resume never reads it: the cache alone
// decides which cells still need to simulate.
type Status struct {
	Grid string      `json:"grid"`
	Jobs []JobRecord `json:"jobs"`
}

// StatusPath returns where a cache dir keeps its last finished run's
// status.
func StatusPath(cacheDir string) string {
	return filepath.Join(cacheDir, "status.json")
}

// NewStatus builds the status of a run of grid from the results
// Engine.Run returned.
func NewStatus(grid string, results []JobResult) *Status {
	s := &Status{Grid: grid, Jobs: make([]JobRecord, len(results))}
	for i, r := range results {
		rc := r.Job.Config.Resolved()
		rec := JobRecord{
			Workload: r.Job.Workload,
			Policy:   rc.Policy,
			Seed:     rc.Seed,
			Status:   StatusDone,
			Cached:   r.Cached,
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
		s.Jobs[i] = rec
	}
	return s
}

// LoadStatus reads the status the last finished run left in cacheDir. An
// error wrapping fs.ErrNotExist means no run has finished there since the
// last one started.
func LoadStatus(cacheDir string) (*Status, error) {
	data, err := os.ReadFile(StatusPath(cacheDir))
	if err != nil {
		return nil, fmt.Errorf("campaign: reading run status: %w", err)
	}
	var s Status
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: reading run status %s: %w", StatusPath(cacheDir), err)
	}
	return &s, nil
}

// Save writes the status to cacheDir the way Cache.Put writes an entry,
// through a temp file and a rename.
func (s *Status) Save(cacheDir string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("campaign: encoding run status: %w", err)
	}
	if err := writeAtomic(StatusPath(cacheDir), ".status.tmp-*", data); err != nil {
		return fmt.Errorf("campaign: writing run status: %w", err)
	}
	return nil
}

// Counts returns the number of jobs per status.
func (s *Status) Counts() (done, failed, quarantined int) {
	for _, rec := range s.Jobs {
		switch rec.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusQuarantined:
			quarantined++
		}
	}
	return
}
