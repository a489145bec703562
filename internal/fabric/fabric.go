// Package fabric is a coordinator/worker leasing protocol where workers
// lease cells from a dependency-aware work queue and share one
// content-addressed cache namespace, built so that a killed worker never
// loses a campaign — at most it re-simulates its in-flight cell.
//
// The package has no deployment front end: no network transport and no
// CLI. Coordinator and workers run in one process over LocalConn (or
// FaultConn for chaos schedules); single-host campaigns use
// campaign.Engine directly.
//
// The design leans entirely on the two substrates PR 4 hardened:
//
//   - The append-only JSONL journal idiom. Lease lifecycle events
//     (lease / renew / complete / expire) are single appended lines in
//     fabric.jsonl next to the campaign manifest; a coordinator killed
//     mid-append leaves at most one torn final line, which replay drops,
//     and a double-completion (the stale-lease race) is idempotent by
//     construction — the second row is counted and ignored.
//   - Content-addressed, sha256-checksummed cache entries. Every entry
//     that crosses a process boundary — a worker uploading a completed
//     cell, a worker reading another worker's result through the
//     coordinator — is re-verified on receipt. Verify on read, never on
//     trust: a corrupt remote entry degrades to local re-simulation,
//     never a crash and never a poisoned store.
//
// Time in the fabric is a logical clock. The coordinator's lease TTLs
// are ticks, advanced by Coordinator.Advance — driven by the caller; in
// the chaos suite a seeded schedule interleaves worker steps, clock
// advances, and worker kills fully deterministically. Expiry, reclaim,
// and re-queue logic therefore replays bit-identically under any seed.
//
// Correctness claim (chaos-tested over 100+ seeded fault schedules,
// including mid-campaign worker kills): every run terminates, and after
// a fault-free resume the coordinator's cache exports byte-identically
// to a never-faulted single-host campaign over the same grid.
package fabric

import (
	"fmt"

	"repro/internal/campaign"
)

// Cell is one unit of fabric work: a campaign job plus the keys of the
// cells that must complete before it may be leased. Dependencies are a
// queue-scheduling constraint only — they never change a cell's
// content-addressed identity or its result.
type Cell struct {
	Job campaign.Job
	// Key is the job's content-addressed identity; CellsFromJobs fills
	// it in.
	Key string
	// Deps lists cache keys that must be done before this cell is
	// leasable.
	Deps []string
}

// CellsFromJobs wraps plain campaign jobs as dependency-free cells,
// computing each cell's content key. A job whose config cannot be
// canonicalized is an error here — the fabric cannot lease a cell it
// cannot name.
func CellsFromJobs(jobs []campaign.Job) ([]Cell, error) {
	cells := make([]Cell, 0, len(jobs))
	for _, j := range jobs {
		key, err := j.Key()
		if err != nil {
			return nil, fmt.Errorf("fabric: keying job %s: %w", j, err)
		}
		cells = append(cells, Cell{Job: j, Key: key})
	}
	return cells, nil
}
