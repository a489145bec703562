// Package faultinject is a seeded, deterministic fault-injection
// framework for chaos-testing the campaign stack. An Injector carries a
// schedule of faults — which site fires, what kind of fault, and on which
// hit — derived entirely from a single uint64 seed through internal/xrand,
// so a fault schedule replays bit-identically across runs and under -race.
//
// Sites are the hardening boundaries named by the robustness plan: cache
// read/write, manifest append, worker execution and simulation step
// (commit) boundaries. Each layer consults its injector with Check (or, for
// the simulator, the precomputed StallCycle) and applies the returned fault
// kind itself; the injector never touches I/O or simulator state directly.
//
// Injection is disabled by default: every method is safe on a nil
// *Injector and reports "no fault", so production call sites pay one nil
// check and nothing else.
package faultinject

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/xrand"
)

// Site identifies an injection point in the campaign stack.
type Site uint8

const (
	// SiteCacheRead fires inside Cache.Get: a read error (→ miss) or a
	// corrupted payload (→ checksum mismatch → miss).
	SiteCacheRead Site = iota
	// SiteCacheWrite fires inside Cache.Put: a write error, or corrupt /
	// truncated bytes persisted in place of the entry.
	SiteCacheWrite
	// SiteManifestAppend fires inside Manifest.Append: a lost append or a
	// torn (half-written, newline-less) journal line.
	SiteManifestAppend
	// SiteWorkerExec fires inside the engine's per-attempt wrapper: a
	// transient error or a worker panic.
	SiteWorkerExec
	// SiteSimStep seeds a simulator livelock: commit stalls permanently
	// from a scheduled cycle, exercising the forward-progress watchdog.
	SiteSimStep
	numSites
)

// String names the site for event logs and test failures.
func (s Site) String() string {
	switch s {
	case SiteCacheRead:
		return "cache-read"
	case SiteCacheWrite:
		return "cache-write"
	case SiteManifestAppend:
		return "manifest-append"
	case SiteWorkerExec:
		return "worker-exec"
	case SiteSimStep:
		return "sim-step"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// Kind is the fault a site applies when its schedule fires.
type Kind uint8

const (
	// KindNone means no fault at this hit.
	KindNone Kind = iota
	// KindError makes the operation fail with ErrInjected.
	KindError
	// KindCorrupt flips bytes in the payload (see Mutate).
	KindCorrupt
	// KindTruncate cuts the payload short mid-write (see Mutate).
	KindTruncate
	// KindPanic makes the worker panic.
	KindPanic
	// KindStall freezes simulator commit from a scheduled cycle on.
	KindStall
)

// String names the kind for event logs and test failures.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrInjected is the sentinel wrapped by every KindError fault, so tests
// and operators can tell injected failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Event records one fault that actually fired.
type Event struct {
	Site Site
	Kind Kind
	Hit  uint64 // 1-based hit count at the site when the fault fired
}

// String renders the event for logs.
func (e Event) String() string { return fmt.Sprintf("%s/%s@%d", e.Site, e.Kind, e.Hit) }

// fault is one scheduled fault: fire kind on the fireAt-th hit (1-based)
// of its site. For SiteSimStep, fireAt is the stall cycle instead.
type fault struct {
	kind   Kind
	fireAt uint64
}

// Injector holds a fault schedule and the hit counters that drive it.
// All methods are safe for concurrent use and safe on a nil receiver
// (nil = injection disabled).
type Injector struct {
	seed uint64
	root *Injector // event sink for derived injectors; nil = self

	mu     sync.Mutex
	plans  [numSites][]fault
	hits   [numSites]uint64
	events []Event
}

// sink returns the injector holding the event log: the root of a Child
// tree, so Events on the parent sees faults fired by every child.
func (in *Injector) sink() *Injector {
	if in.root != nil {
		return in.root
	}
	return in
}

// record appends a fired fault to the root event log.
func (in *Injector) record(e Event) {
	s := in.sink()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

// siteKinds lists the fault kinds each site can express; random schedules
// draw from these.
var siteKinds = [numSites][]Kind{
	SiteCacheRead:      {KindError, KindCorrupt},
	SiteCacheWrite:     {KindError, KindCorrupt, KindTruncate},
	SiteManifestAppend: {KindError, KindTruncate},
	SiteWorkerExec:     {KindError, KindPanic},
	SiteSimStep:        {KindStall},
}

// New derives a random fault schedule from seed: each site independently
// gets a fault with probability ~1/2, with a site-appropriate kind and an
// early fire point, so a sweep over seeds covers single faults, fault
// combinations, and the fault-free case.
func New(seed uint64) *Injector {
	in := &Injector{seed: seed}
	for s := Site(0); s < numSites; s++ {
		r := xrand.New(xrand.Hash64(seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15))
		if !r.Bool(0.5) {
			continue
		}
		kinds := siteKinds[s]
		k := kinds[r.Intn(len(kinds))]
		fireAt := 1 + r.Uint64n(3) // sites see only a handful of hits per small campaign
		if s == SiteSimStep {
			fireAt = 200 + r.Uint64n(2500) // stall cycle, comfortably before any MaxCycles bound
		}
		in.plans[s] = append(in.plans[s], fault{kind: k, fireAt: fireAt})
	}
	return in
}

// Plan returns an empty, hand-buildable schedule (see Schedule) whose
// derived streams (Child, Mutate) are seeded from label.
func Plan(label string) *Injector {
	return &Injector{seed: xrand.Hash64(hashString(label))}
}

// Schedule adds one fault: kind fires on the fireAt-th hit (1-based) of
// site — except SiteSimStep, where fireAt is the commit-stall cycle.
// It returns the injector for chaining.
func (in *Injector) Schedule(site Site, kind Kind, fireAt uint64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plans[site] = append(in.plans[site], fault{kind: kind, fireAt: fireAt})
	return in
}

// Check counts one hit at site and returns the fault kind scheduled for
// it, KindNone when the schedule is silent. Safe on a nil injector.
func (in *Injector) Check(site Site) Kind {
	if in == nil {
		return KindNone
	}
	in.mu.Lock()
	in.hits[site]++
	hit := in.hits[site]
	kind := KindNone
	for _, f := range in.plans[site] {
		if f.fireAt == hit {
			kind = f.kind
			break
		}
	}
	in.mu.Unlock()
	if kind != KindNone {
		in.record(Event{Site: site, Kind: kind, Hit: hit})
	}
	return kind
}

// StallCycle returns the commit-stall cycle of the SiteSimStep plan, if
// any. Exposing the stall as a precomputed cycle keeps the simulator's
// per-cycle loop free of injector locking: the hot path costs nothing.
// Safe on a nil injector.
func (in *Injector) StallCycle() (uint64, bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	var cycle, hit uint64
	found := false
	for _, f := range in.plans[SiteSimStep] {
		if f.kind == KindStall {
			in.hits[SiteSimStep]++
			cycle, hit, found = f.fireAt, in.hits[SiteSimStep], true
			break
		}
	}
	in.mu.Unlock()
	if !found {
		return 0, false
	}
	in.record(Event{Site: SiteSimStep, Kind: KindStall, Hit: hit})
	return cycle, true
}

// Child derives a sub-injector with the same schedule shape but counters
// of its own, seeded by (parent seed, label). The campaign engine hands
// each job a child keyed by the job's cache key, so which worker runs a
// job never changes what faults it sees. Faults fired by a child are
// logged on the root injector's event log (see Events). Safe on a nil
// injector (child of nil is nil: still disabled).
func (in *Injector) Child(label string) *Injector {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	child := &Injector{seed: xrand.Hash64(in.seed ^ hashString(label)), root: in.sink()}
	child.plans = in.plans
	return child
}

// Mutate applies a payload fault deterministically: KindCorrupt flips one
// seed-chosen byte, KindTruncate keeps roughly the first half (always at
// least one byte short). Other kinds return data unchanged. The input
// slice is never modified.
func (in *Injector) Mutate(kind Kind, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	switch kind {
	case KindCorrupt:
		out := append([]byte(nil), data...)
		var seed uint64
		if in != nil {
			seed = in.seed
		}
		r := xrand.New(xrand.Hash64(seed ^ uint64(len(data))))
		out[r.Intn(len(out))] ^= byte(1 + r.Intn(255))
		return out
	case KindTruncate:
		return append([]byte(nil), data[:len(data)/2]...)
	default:
		// KindNone, KindError, KindPanic and KindStall carry no payload
		// mutation: the data passes through untouched.
		return data
	}
}

// Events returns a copy of the faults that fired so far across the whole
// Child tree, in firing order. Safe on a nil injector.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	s := in.sink()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// hashString is FNV-1a 64, used to fold string labels into xrand seeds.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
