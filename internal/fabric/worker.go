package fabric

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Worker executes leased cells against a coordinator reached through
// Conn. It is written as an explicit step machine — Step performs exactly
// one protocol round (acquire a lease, or execute-and-complete the held
// one) — so the chaos harness can interleave workers, clock ticks, and
// kills under a seeded schedule. Heartbeats are explicit too: the
// harness calls Renew.
//
// Every failure path degrades, never crashes: a lost message is retried
// with deterministic backoff, a corrupt remote entry falls back to local
// simulation, an unreachable coordinator at completion time just lets the
// lease expire (the cell re-queues; at most the in-flight work is
// re-simulated — the SIGKILL guarantee, from the worker's side).
type Worker struct {
	// ID names this worker in leases and journals.
	ID string
	// Conn reaches the coordinator (possibly through FaultConn).
	Conn Conn
	// Engine executes cells locally: its cache is this worker's local
	// cache layer, its registered cell kinds (specfuzz, ...) run here.
	Engine *campaign.Engine
	// WaitBackoff is the base delay for lease-wait and message-retry
	// pacing, keyed by worker id / cell key for deterministic jitter
	// (0 disables sleeping — the chaos harness's mode).
	WaitBackoff time.Duration
	// MsgRetries bounds resends of one message (default 5). Exhausting it
	// abandons the cell to lease expiry — safe, merely wasteful.
	MsgRetries int
	// Trace, when non-nil, emits instant spans for grants, remote cache
	// hits, degradations, and completions.
	Trace *obs.Tracer
	// Faults is the worker-side chaos schedule: SiteHeartbeat drops
	// renewals, SiteStaleComplete duplicates completion sends.
	Faults *faultinject.Injector
	// Sleep replaces time.Sleep in tests (nil = time.Sleep).
	Sleep func(time.Duration)

	// cur is the held lease, nil between cells.
	cur *heldLease
	// waits counts consecutive wait/error rounds for backoff escalation,
	// reset by a grant.
	waits int
	// CellsRun counts cells this worker executed locally (not served
	// remotely) — the chaos tests' work-distribution probe.
	CellsRun int
	// RemoteHits counts cells served from the coordinator's shared cache.
	RemoteHits int
	// Degraded counts remote entries that failed verification and fell
	// back to local simulation.
	Degraded int
}

// heldLease is the worker's view of its granted cell.
type heldLease struct {
	key   string
	lease uint64
	ttl   uint64
	job   campaign.Job
}

// Step runs one protocol round: leaseless workers ask for work; holders
// execute and complete. done=true means the coordinator declared the
// campaign settled. Errors are internal hard faults (nil engine); every
// transport-level failure is absorbed and retried.
func (w *Worker) Step() (done bool, err error) {
	if w.Engine == nil {
		return false, fmt.Errorf("fabric: worker %s has no engine", w.ID)
	}
	if w.cur == nil {
		return w.stepLease()
	}
	w.stepExecute()
	return false, nil
}

// stepLease asks the coordinator for work.
func (w *Worker) stepLease() (bool, error) {
	resp, err := w.Conn.Do(Msg{Type: MsgLeaseReq, Worker: w.ID})
	if err != nil {
		w.pause()
		return false, nil // transport fault: retry next step
	}
	switch resp.Type {
	case MsgGrant:
		if resp.Job == nil || resp.Key == "" {
			w.pause()
			return false, nil // damaged grant: re-request
		}
		w.cur = &heldLease{key: resp.Key, lease: resp.Lease, ttl: resp.TTLTicks, job: *resp.Job}
		w.waits = 0
		w.Trace.Instant("fabric-grant", spanKey(resp.Key, resp.Lease), obs.Attr{K: "worker", V: w.ID})
		return false, nil
	case MsgShutdown:
		return true, nil
	default:
		// MsgWait, nacks, and anything mangled in flight: back off, retry.
		w.pause()
		return false, nil
	}
}

// stepExecute resolves the held cell — local cache, then the shared
// remote namespace, then local simulation — and reports completion.
func (w *Worker) stepExecute() {
	cur := w.cur
	w.cur = nil
	w.complete(cur, w.execute(cur))
}

// execute produces the completion message for the held cell.
func (w *Worker) execute(cur *heldLease) Msg {
	// Local probe: the engine's disk cache may already hold this cell
	// (a previous life of this worker, or a shared filesystem).
	if cache := w.Engine.Cache; cache != nil {
		if e, ok := cache.Get(cur.key); ok {
			return Msg{Type: MsgComplete, Status: campaign.StatusDone, Entry: &e}
		}
	}
	// Remote probe: another worker may have simulated this cell already
	// (a reclaimed lease re-granted to us mid-flight, a shared dep). The
	// coordinator's reply crosses the wire, so the entry is re-verified
	// here — a corrupt remote read degrades to local simulation, never a
	// crash and never a poisoned local cache.
	if resp, err := w.Conn.Do(Msg{Type: MsgEntryReq, Worker: w.ID, Key: cur.key}); err == nil && resp.Type == MsgEntry && resp.Entry != nil {
		if resp.Entry.Key == cur.key && resp.Entry.Verify() {
			w.RemoteHits++
			w.Trace.Instant("fabric-remote-hit", spanKey(cur.key, cur.lease), obs.Attr{K: "worker", V: w.ID})
			if cache := w.Engine.Cache; cache != nil {
				if err := cache.PutEntry(*resp.Entry); err != nil {
					w.warn(cur, "caching remote entry: "+err.Error())
				}
			}
			return Msg{Type: MsgComplete, Status: campaign.StatusDone, Entry: resp.Entry}
		}
		w.Degraded++
		w.Trace.Instant("fabric-degrade", spanKey(cur.key, cur.lease),
			obs.Attr{K: "worker", V: w.ID}, obs.Attr{K: "why", V: "remote entry failed verification"})
	}
	// Simulate locally.
	w.CellsRun++
	r := w.Engine.RunJob(cur.job)
	msg := Msg{
		Type:     MsgComplete,
		Status:   campaign.StatusDone,
		Attempts: r.Attempts,
	}
	switch {
	case r.Quarantined:
		msg.Status = campaign.StatusQuarantined
		msg.Dump = r.DumpPath
		if r.Err != nil {
			msg.Err = r.Err.Error()
		}
	case r.Err != nil:
		msg.Status = campaign.StatusFailed
		msg.Err = r.Err.Error()
	default:
		e, err := campaign.NewEntry(r.Job, r.Result, r.Aux)
		if err != nil {
			msg.Status = campaign.StatusFailed
			msg.Err = err.Error()
			break
		}
		msg.Entry = &e
	}
	return msg
}

// complete reports the cell's outcome, retrying through transport faults.
// A nacked upload (the wire corrupted the entry) is rebuilt from the
// local cache and resent; exhausting MsgRetries abandons the cell to
// lease expiry.
func (w *Worker) complete(cur *heldLease, msg Msg) {
	msg.Worker = w.ID
	msg.Key = cur.key
	msg.Lease = cur.lease
	dup := w.Faults.Check(faultinject.SiteStaleComplete) == faultinject.KindDuplicate
	retries := w.MsgRetries
	if retries == 0 {
		retries = 5
	}
	for attempt := 1; attempt <= retries; attempt++ {
		resp, err := w.Conn.Do(msg)
		if err != nil {
			w.sleepFor(campaign.Backoff(cur.key, attempt, w.WaitBackoff))
			continue
		}
		switch resp.Type {
		case MsgCompleteAck:
			if dup {
				// Injected stale double-completion: resend the identical
				// message. The coordinator must count it, not re-settle.
				if _, err := w.Conn.Do(msg); err != nil {
					w.warn(cur, "duplicate completion send failed (harmless): "+err.Error())
				}
			}
			w.Trace.Instant("fabric-complete-sent", spanKey(cur.key, cur.lease),
				obs.Attr{K: "worker", V: w.ID}, obs.Attr{K: "status", V: msg.Status},
				obs.Attr{K: "stale", V: strconv.FormatBool(resp.Stale)})
			return
		case MsgNack:
			// Rebuild the entry from local truth — the wire may have
			// mangled the last copy — and try again.
			if msg.Entry != nil && w.Engine.Cache != nil {
				if e, ok := w.Engine.Cache.Get(cur.key); ok {
					msg.Entry = &e
				}
			}
			w.sleepFor(campaign.Backoff(cur.key, attempt, w.WaitBackoff))
		default:
			w.sleepFor(campaign.Backoff(cur.key, attempt, w.WaitBackoff))
		}
	}
	w.warn(cur, "completion undeliverable; abandoning cell to lease expiry")
}

// renew sends one heartbeat for the held cell. SiteHeartbeat faults
// swallow it — the "worker alive but heartbeats lost" failure, which must
// cost at most a re-simulation, never a wedge.
func (w *Worker) renew(cur *heldLease) {
	if w.Faults.Check(faultinject.SiteHeartbeat) == faultinject.KindDrop {
		return
	}
	// A lost or nacked heartbeat is not fatal: the lease may expire and
	// re-queue, but our eventual completion is still content-valid — so
	// the reply is deliberately ignored.
	_, _ = w.Conn.Do(Msg{Type: MsgRenew, Worker: w.ID, Key: cur.key, Lease: cur.lease})
}

// Renew sends one heartbeat for the currently held lease (the chaos
// harness's step-machine entry point). No-op without a held lease.
func (w *Worker) Renew() {
	if w.cur != nil {
		w.renew(w.cur)
	}
}

// Holding returns the key of the currently held lease ("" between cells).
func (w *Worker) Holding() string {
	if w.cur == nil {
		return ""
	}
	return w.cur.key
}

// pause backs off after a wait or transport fault, escalating with
// consecutive occurrences; jitter derives from the worker id, so two
// waiting workers never thundering-herd in lockstep.
func (w *Worker) pause() {
	w.waits++
	attempt := w.waits
	if attempt > 8 {
		attempt = 8 // cap the exponent: ~quarter-second base → ~30s max
	}
	w.sleepFor(campaign.Backoff(w.ID, attempt, w.WaitBackoff))
}

func (w *Worker) sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	if w.Sleep != nil {
		w.Sleep(d)
		return
	}
	time.Sleep(d)
}

func (w *Worker) warn(cur *heldLease, msg string) {
	w.Trace.Instant("fabric-warn", spanKey(cur.key, cur.lease),
		obs.Attr{K: "worker", V: w.ID}, obs.Attr{K: "msg", V: msg})
}
