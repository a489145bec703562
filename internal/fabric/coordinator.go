package fabric

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// DefaultTTLTicks is the default lease lifetime in coordinator clock
// ticks: an order-of-magnitude margin over a worker that heartbeats every
// few ticks.
const DefaultTTLTicks = 30

// Config configures a coordinator.
type Config struct {
	// Grid names the campaign (recorded in the manifest and journals).
	Grid string
	// Cells is the campaign's work, dependencies included.
	Cells []Cell
	// CacheDir is the coordinator's cache root: the shared namespace every
	// worker reads through MsgEntryReq and completes into via MsgComplete.
	CacheDir string
	// TTLTicks is the lease lifetime granted to workers (0 →
	// DefaultTTLTicks).
	TTLTicks uint64
	// Trace, when non-nil, emits an instant span per lease / renew /
	// complete / expire transition.
	Trace *obs.Tracer
	// Faults is the chaos-test fault schedule (nil = disabled). The
	// coordinator checks SiteLeaseExpiry in the grant path and passes the
	// injector to the lease journal and cache.
	Faults *faultinject.Injector
	// Warn, when non-nil, receives one line per anomaly (corrupt uploads,
	// journal append failures, reclaims).
	Warn func(msg string)
}

// Stats counts coordinator protocol events. All fields are guarded by the
// coordinator's mutex; AttachMetrics reads them through locked closures.
type Stats struct {
	Granted        uint64 // leases granted
	Renewed        uint64 // heartbeats accepted
	Completed      uint64 // cells settled by a completion message
	Expired        uint64 // leases reclaimed by the clock
	StaleCompletes uint64 // completions for already-reclaimed leases
	DupCompletes   uint64 // completions for already-settled cells
	Rejected       uint64 // uploads refused (checksum or schema)
	RemoteReads    uint64 // entry-req hits served from the shared cache
	ResumedCells   uint64 // cells settled by the startup cache probe
}

// Coordinator owns the campaign: the dependency-aware queue, the shared
// content-addressed cache, the manifest, and the lease journal. It is a
// pure request/reply state machine — Handle never blocks on I/O besides
// local appends and cache writes — driven by any Conn and by a logical
// clock (Advance).
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	queue    *queue
	cache    *campaign.Cache
	manifest *campaign.Manifest
	log      *LeaseLog
	tick     uint64
	leaseSeq uint64
	stats    Stats
}

// NewCoordinator builds a coordinator over cfg, resuming from whatever a
// previous run left in the cache dir. Resume trusts only verified cache
// entries: every cell whose entry reads back clean is settled immediately
// (no lease, no re-simulation); everything else — including cells the
// lease journal claims were leased when the last coordinator died — is
// pending again.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.TTLTicks == 0 {
		cfg.TTLTicks = DefaultTTLTicks
	}
	if len(cfg.Cells) == 0 {
		return nil, errors.New("fabric: coordinator needs at least one cell")
	}
	q, err := newQueue(cfg.Cells)
	if err != nil {
		return nil, err
	}
	cache, err := campaign.OpenCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	cache.Warn = cfg.Warn
	cache.Faults = cfg.Faults
	m, ok := campaign.LoadManifest(cfg.CacheDir)
	if !ok {
		m = campaign.NewManifest(cfg.CacheDir, cfg.Grid)
	}
	m.Faults = cfg.Faults
	jobs := make([]campaign.Job, 0, len(cfg.Cells))
	for _, c := range cfg.Cells {
		jobs = append(jobs, c.Job)
	}
	m.Reconcile(cfg.Grid, jobs)
	log, err := OpenLeaseLog(cfg.CacheDir, cfg.Grid)
	if err != nil {
		return nil, err
	}
	log.Faults = cfg.Faults
	c := &Coordinator{cfg: cfg, queue: q, cache: cache, manifest: m, log: log}
	c.resumeFromCache()
	if err := m.Save(); err != nil {
		return nil, err
	}
	return c, nil
}

// resumeFromCache settles every cell whose verified entry already exists —
// verify on read, never on trust: the manifest and lease journal only say
// what some process believed; the checksummed entry is the proof.
func (c *Coordinator) resumeFromCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range c.cfg.Cells {
		e, ok := c.cache.Get(cell.Key)
		if !ok {
			continue
		}
		c.queue.markDone(cell.Key)
		c.stats.ResumedCells++
		c.manifest.Record(campaign.JobResult{Job: cell.Job, Key: cell.Key, Result: e.Result, Aux: e.Aux, Cached: true})
	}
}

// Handle processes one protocol message and returns the reply. It never
// panics and never returns a malformed reply: an unintelligible request —
// which the fault transport can manufacture by corrupting bytes in flight
// — gets a nack, and the sender retries.
func (c *Coordinator) Handle(m Msg) Msg {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch m.Type {
	case MsgLeaseReq:
		return c.leaseLocked(m)
	case MsgRenew:
		return c.renewLocked(m)
	case MsgComplete:
		return c.completeLocked(m)
	case MsgEntryReq:
		return c.entryLocked(m)
	default:
		return Msg{Type: MsgNack, Key: m.Key, Reason: fmt.Sprintf("unhandled message type %q", m.Type)}
	}
}

// spanKey builds a per-event span identity: cache key + lease id, so
// repeated transitions on one cell stay distinct events.
func spanKey(key string, lease uint64) string {
	return key + "#" + strconv.FormatUint(lease, 10)
}

// leaseLocked grants work. Caller holds c.mu.
func (c *Coordinator) leaseLocked(m Msg) Msg {
	if m.Worker == "" {
		return Msg{Type: MsgNack, Reason: "lease-req without worker id"}
	}
	// Idempotent re-grant: if this worker already holds a live lease (its
	// grant response was lost in transit), hand back the same cell.
	if rec, ok := c.queue.held(m.Worker); ok {
		return c.grantLocked(rec, false)
	}
	c.queue.cascadeFailures()
	if c.queue.settled() {
		return Msg{Type: MsgShutdown}
	}
	expiry := c.tick + c.cfg.TTLTicks
	if c.cfg.Faults.Check(faultinject.SiteLeaseExpiry) == faultinject.KindError {
		// Injected instant expiry: the lease is dead on arrival and the
		// next Advance reclaims it — the chaos schedule's way of forcing
		// the stale-completion path on an arbitrary grant.
		expiry = c.tick
	}
	c.leaseSeq++
	rec, ok := c.queue.lease(m.Worker, c.leaseSeq, expiry)
	if !ok {
		// Work exists but nothing is leasable (all in flight, or blocked
		// on in-flight dependencies): ask again after a backoff.
		return Msg{Type: MsgWait}
	}
	return c.grantLocked(rec, true)
}

// grantLocked journals and emits a grant reply for a (re-)leased cell.
// Caller holds c.mu.
func (c *Coordinator) grantLocked(rec *cellRec, fresh bool) Msg {
	if fresh {
		c.stats.Granted++
		c.journalLocked(LeaseRow{Op: OpLease, Key: rec.cell.Key, Worker: rec.worker, Lease: rec.lease, Tick: c.tick, ExpiryTick: rec.expiry})
		c.cfg.Trace.Instant("fabric-lease", spanKey(rec.cell.Key, rec.lease),
			obs.Attr{K: "worker", V: rec.worker}, obs.Attr{K: "key", V: rec.cell.Key})
	}
	job := rec.cell.Job
	return Msg{Type: MsgGrant, Worker: rec.worker, Key: rec.cell.Key, Lease: rec.lease, TTLTicks: c.cfg.TTLTicks, Job: &job}
}

// renewLocked extends a live lease (the heartbeat). Caller holds c.mu.
func (c *Coordinator) renewLocked(m Msg) Msg {
	expiry := c.tick + c.cfg.TTLTicks
	if !c.queue.renew(m.Key, m.Lease, expiry) {
		return Msg{Type: MsgNack, Key: m.Key, Reason: "lease expired or unknown"}
	}
	c.stats.Renewed++
	c.journalLocked(LeaseRow{Op: OpRenew, Key: m.Key, Worker: m.Worker, Lease: m.Lease, Tick: c.tick, ExpiryTick: expiry})
	c.cfg.Trace.Instant("fabric-heartbeat", spanKey(m.Key, m.Lease), obs.Attr{K: "worker", V: m.Worker})
	return Msg{Type: MsgRenewAck, Key: m.Key, Lease: m.Lease}
}

// completeLocked settles a cell from a completion message. Caller holds
// c.mu.
func (c *Coordinator) completeLocked(m Msg) Msg {
	rec, ok := c.queue.cells[m.Key]
	if !ok {
		return Msg{Type: MsgNack, Key: m.Key, Reason: "unknown cell"}
	}
	state, err := completionState(m.Status)
	if err != nil {
		return Msg{Type: MsgNack, Key: m.Key, Reason: err.Error()}
	}
	if state == stateDone {
		// A success must carry its entry, and the entry must re-hash clean
		// under the claimed key: verify on read, never on trust. A corrupt
		// upload is refused — the worker rebuilds from its local cache and
		// retries — so one damaged message can never poison the shared
		// namespace.
		if m.Entry == nil || m.Entry.Key != m.Key || !m.Entry.Verify() {
			c.stats.Rejected++
			c.warnf("rejecting completion for %s: entry missing or fails verification", m.Key)
			return Msg{Type: MsgNack, Key: m.Key, Reason: "entry missing or fails checksum verification"}
		}
		if _, cached := c.cache.Get(m.Key); !cached {
			if err := c.cache.PutEntry(*m.Entry); err != nil {
				c.stats.Rejected++
				c.warnf("storing completion for %s: %v", m.Key, err)
				return Msg{Type: MsgNack, Key: m.Key, Reason: "cache write failed: " + err.Error()}
			}
		}
	}
	stale, already := c.queue.complete(m.Key, m.Lease, state, m.Err)
	if already {
		c.stats.DupCompletes++
		return Msg{Type: MsgCompleteAck, Key: m.Key, Stale: true}
	}
	if stale {
		c.stats.StaleCompletes++
	}
	c.stats.Completed++
	c.journalLocked(LeaseRow{Op: OpComplete, Key: m.Key, Worker: m.Worker, Lease: m.Lease, Tick: c.tick, Status: m.Status})
	c.recordLocked(rec, m)
	c.cfg.Trace.Instant("fabric-complete", spanKey(m.Key, m.Lease),
		obs.Attr{K: "worker", V: m.Worker}, obs.Attr{K: "status", V: m.Status},
		obs.Attr{K: "stale", V: strconv.FormatBool(stale)})
	return Msg{Type: MsgCompleteAck, Key: m.Key, Stale: stale}
}

// completionState maps a manifest status string to a terminal cell state.
func completionState(status string) (cellState, error) {
	switch status {
	case campaign.StatusDone:
		return stateDone, nil
	case campaign.StatusFailed:
		return stateFailed, nil
	case campaign.StatusQuarantined:
		return stateQuarantined, nil
	default:
		return stateFailed, fmt.Errorf("unknown completion status %q", status)
	}
}

// recordLocked journals the cell outcome into the campaign manifest, so
// `campaign status` and fsck see fabric results exactly like single-host
// ones. Caller holds c.mu.
func (c *Coordinator) recordLocked(rec *cellRec, m Msg) {
	r := campaign.JobResult{
		Job:      rec.cell.Job,
		Key:      m.Key,
		Attempts: m.Attempts,
	}
	if m.Entry != nil {
		r.Result = m.Entry.Result
		r.Aux = m.Entry.Aux
	}
	if m.Err != "" {
		r.Err = errors.New(m.Err)
	}
	if m.Status == campaign.StatusQuarantined {
		r.Quarantined = true
		r.DumpPath = m.Dump
		if r.Err == nil {
			r.Err = errors.New("worker panic (see dump)")
		}
	}
	if err := c.manifest.Append(r); err != nil {
		c.warnf("manifest append for %s: %v", m.Key, err)
	}
}

// entryLocked serves the shared-cache read path. Caller holds c.mu.
func (c *Coordinator) entryLocked(m Msg) Msg {
	e, ok := c.cache.Get(m.Key)
	if !ok {
		return Msg{Type: MsgNack, Key: m.Key, Reason: "cache miss"}
	}
	c.stats.RemoteReads++
	return Msg{Type: MsgEntry, Key: m.Key, Entry: &e}
}

// journalLocked appends one lease row, downgrading journal failures to
// warnings: the queue is authoritative, the journal is the audit trail.
// Caller holds c.mu.
func (c *Coordinator) journalLocked(row LeaseRow) {
	if err := c.log.Append(row); err != nil {
		c.warnf("%v", err)
	}
}

func (c *Coordinator) warnf(format string, args ...any) {
	if c.cfg.Warn != nil {
		c.cfg.Warn(fmt.Sprintf(format, args...))
	}
}

// Advance moves the logical clock forward n ticks and reclaims every
// lease whose expiry passed — the only path by which a SIGKILL'd worker's
// cell returns to the queue. Returns how many leases were reclaimed.
func (c *Coordinator) Advance(n uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick += n
	due := c.queue.expireDue(c.tick)
	for _, rec := range due {
		c.stats.Expired++
		c.journalLocked(LeaseRow{Op: OpExpire, Key: rec.cell.Key, Lease: rec.lease, Tick: c.tick})
		c.cfg.Trace.Instant("fabric-expire", spanKey(rec.cell.Key, rec.lease),
			obs.Attr{K: "key", V: rec.cell.Key}, obs.Attr{K: "requeues", V: strconv.Itoa(rec.requeues)})
		c.warnf("lease on %s expired at tick %d (requeue %d): worker went dark, cell re-queued", rec.cell.Key, c.tick, rec.requeues)
	}
	return len(due)
}

// Settled reports whether every cell has reached a terminal state.
func (c *Coordinator) Settled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue.cascadeFailures()
	return c.queue.settled()
}

// Counts tallies cells per state.
func (c *Coordinator) Counts() (pending, leased, done, failed, quarantined int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue.counts()
}

// Stats returns a snapshot of the protocol counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Manifest exposes the campaign manifest (status surfaces and tests).
func (c *Coordinator) Manifest() *campaign.Manifest { return c.manifest }

// Cache exposes the shared cache (export and gc).
func (c *Coordinator) Cache() *campaign.Cache { return c.cache }

// Close compacts the manifest and releases the journals.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.manifest.Save()
	if cerr := c.manifest.Close(); err == nil {
		err = cerr
	}
	if cerr := c.log.Close(); err == nil {
		err = cerr
	}
	return err
}
