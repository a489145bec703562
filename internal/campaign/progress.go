package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Reporter streams campaign progress (completed/total, cache hits,
// failures, ETA) to a writer, one line per completed job. It is safe for
// concurrent use by the engine's workers.
type Reporter struct {
	W io.Writer

	mu          sync.Mutex
	total       int
	done        int
	cached      int
	failed      int
	quarantined int
	start       time.Time
}

// NewReporter creates a reporter writing to w.
func NewReporter(w io.Writer) *Reporter { return &Reporter{W: w} }

// Start resets the counters for a run of total jobs.
func (r *Reporter) Start(total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total = total
	r.done, r.cached, r.failed, r.quarantined = 0, 0, 0, 0
	r.start = time.Now()
}

// JobDone records one completion and prints a progress line.
func (r *Reporter) JobDone(jr JobResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
	if jr.Cached {
		r.cached++
	}
	switch {
	case jr.Quarantined:
		r.quarantined++
		line := fmt.Sprintf("campaign: QUARANTINED %s: %v", jr.Job, jr.Err)
		if jr.DumpPath != "" {
			line += fmt.Sprintf(" (dump: %s)", jr.DumpPath)
		}
		fmt.Fprintln(r.W, line)
	case jr.Failed():
		r.failed++
		fmt.Fprintf(r.W, "campaign: FAILED %s: %v\n", jr.Job, jr.Err)
	}
	line := fmt.Sprintf("campaign: %d/%d done", r.done, r.total)
	if r.cached > 0 {
		line += fmt.Sprintf(" (%d cached)", r.cached)
	}
	if r.failed > 0 {
		line += fmt.Sprintf(" (%d FAILED)", r.failed)
	}
	if r.quarantined > 0 {
		line += fmt.Sprintf(" (%d QUARANTINED)", r.quarantined)
	}
	if eta := r.etaLocked(); eta > 0 {
		line += fmt.Sprintf("  eta %s", eta.Round(time.Second))
	}
	fmt.Fprintln(r.W, line)
}

// etaLocked extrapolates the remaining wall clock from uncached completions.
// Caller holds r.mu.
func (r *Reporter) etaLocked() time.Duration {
	simulated := r.done - r.cached
	if simulated <= 0 || r.done >= r.total {
		return 0
	}
	perJob := time.Since(r.start) / time.Duration(simulated)
	return perJob * time.Duration(r.total-r.done)
}

// Warn prints a non-fatal engine warning (e.g. a cache write failure).
func (r *Reporter) Warn(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.W, "campaign: warning: %s\n", msg)
}

// Finish prints the summary line.
func (r *Reporter) Finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	line := fmt.Sprintf("campaign: finished %d job(s) in %s (%d cached, %d simulated, %d failed)",
		r.done, time.Since(r.start).Round(time.Millisecond), r.cached, r.done-r.cached-r.failed-r.quarantined, r.failed)
	if r.quarantined > 0 {
		line += fmt.Sprintf(" (%d quarantined)", r.quarantined)
	}
	fmt.Fprintln(r.W, line)
}
