// Package memsys glues the caches, the CEASER indexer, the coherence
// directory, and the DRAM model into the two-level hierarchy of the paper's
// Table 4: per-core L1 data caches and a shared, inclusive L2, with MSHRs
// at both levels.
//
// The hierarchy is event-timed: a load that misses allocates an MSHR entry
// and schedules a completion; the *fill* (install plus victim eviction) is
// applied at completion time. That is what gives the paper's Section 3.3
// semantics for free: when a squash arrives while the request is in flight,
// the entry is marked stale and the returning data is dropped without any
// cache change (the "inflight" class of Figure 15).
package memsys

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/ceaser"
	"repro/internal/coherence"
	"repro/internal/dram"
	"repro/internal/heapq"
	"repro/internal/metrics"
)

// Level says where in the hierarchy a request was satisfied.
type Level int

// Hit levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
	// LevelDelayed is returned when a GetS-Safe attempt failed and the
	// load must be delayed until it is unsquashable (Section 3.5).
	LevelDelayed
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "Mem"
	case LevelDelayed:
		return "Delayed"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Kind classifies an access for traffic accounting (Figure 4b).
type Kind int

// Access kinds.
const (
	KindRegular Kind = iota
	KindInvisible
	KindUpdate
	KindCleanup
)

// Traffic counts cache-hierarchy messages by kind: every L1 access is one
// message, plus one per deeper hop (L1->L2, L2->memory) and one per
// writeback, matching the paper's Figure 4(b) accounting where speculative
// (invisible) and update accesses are broken out separately.
type Traffic struct {
	Regular    uint64
	Invisible  uint64
	Update     uint64
	Cleanup    uint64
	Writebacks uint64
}

// Total returns all message counts combined.
func (t Traffic) Total() uint64 {
	return t.Regular + t.Invisible + t.Update + t.Cleanup + t.Writebacks
}

func (t *Traffic) add(k Kind, n uint64) {
	switch k {
	case KindRegular:
		t.Regular += n
	case KindInvisible:
		t.Invisible += n
	case KindUpdate:
		t.Update += n
	case KindCleanup:
		t.Cleanup += n
	}
}

// Config describes the hierarchy.
type Config struct {
	NumCores int
	L1       cache.Config
	// L1I is the instruction cache (Table 4: 32KB 4-way, 1-cycle RT).
	// A zero SizeBytes disables instruction-fetch modeling.
	L1I     cache.Config
	L2      cache.Config
	L1RT    arch.Cycle
	L2RT    arch.Cycle // base, before the indexer's ExtraLatency
	L1MSHRs int
	L2MSHRs int
	DRAM    dram.Config
	// RandomizeL2 selects CEASER indexing for the L2 (Section 3.2).
	RandomizeL2 bool
	// ProtectSpecWindow services cross-core hits on speculatively
	// installed lines with dummy-miss latency (Section 3.6).
	ProtectSpecWindow bool
	// L2RemapEvery, when non-zero (and the L2 is randomized), relocates
	// one L2 set per this many L2 accesses — CEASER's gradual remap.
	// Remap epochs start automatically and chain continuously.
	L2RemapEvery uint64
	Seed         uint64
}

// DefaultConfig returns the paper's Table 4 hierarchy for n cores.
func DefaultConfig(n int) Config {
	return Config{
		NumCores: n,
		L1: cache.Config{
			Name: "L1D", SizeBytes: 64 << 10, Ways: 8, Repl: cache.ReplLRU,
		},
		L1I: cache.Config{
			Name: "L1I", SizeBytes: 32 << 10, Ways: 4, Repl: cache.ReplLRU,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: (2 << 20) * n, Ways: 16, Repl: cache.ReplLRU,
		},
		L1RT:    1,
		L2RT:    8, // +2 cycles encryption when randomized -> 10 RT
		L1MSHRs: 64,
		L2MSHRs: 64,
		DRAM:    dram.DefaultConfig(),
		Seed:    1,
	}
}

// Txn is one in-flight load transaction. The hierarchy owns every Txn: the
// *Txn passed to the completion callback is valid only during that call,
// after which the hierarchy recycles it for a later load. A callback that
// needs a field after it returns copies it.
type Txn struct {
	Core    int
	Line    arch.LineAddr
	Seq     uint64 // the load's sequence number (waiter id)
	Tag     int32  // the caller's tag from Load, returned unchanged
	Kind    Kind
	Spec    bool
	NoFill  bool // invisible access: no state change on any level
	Epoch   uint8
	Issued  arch.Cycle
	DoneAt  arch.Cycle
	Level   Level
	SEFE    cache.SEFE
	Owner   int  // hardware thread within the core (SMT)
	Dropped bool // fill dropped because every waiter was squashed
	Primary bool // this txn owns the MSHR entry and applies the fill

	onDone  func(*Txn)
	entry   *cache.MSHREntry // L1 MSHR entry (primary only)
	l2entry *cache.MSHREntry // L2 MSHR entry (primary, memory-bound only)
	next    *Txn             // free-list link while the Txn is pooled
}

// Issue is what Load reports about an accepted load: the level serving it
// and the cycle its data returns. Level == LevelDelayed means a GetS-Safe
// attempt failed and nothing was issued.
type Issue struct {
	Level  Level
	DoneAt arch.Cycle
}

// Stats counts hierarchy-level events.
type Stats struct {
	Loads          uint64
	LoadL1Hits     uint64
	LoadL2Hits     uint64
	LoadMems       uint64
	Stores         uint64
	Flushes        uint64
	DroppedFills   uint64
	DummyMisses    uint64 // spec-window protected accesses
	Restores       uint64
	CleanupInvals  uint64
	SafeGetSDelays uint64
}

// Hierarchy is the memory system.
type Hierarchy struct {
	cfg     Config
	l1      []*cache.Cache
	l1i     []*cache.Cache
	l1mshr  []*cache.MSHR
	l2      *cache.Cache
	l2mshr  *cache.MSHR
	l2index *ceaser.Indexer // nil when not randomized
	dir     *coherence.Directory
	mem     *dram.DRAM

	epoch      []uint8
	fillSeq    []uint64 // per-core LoadID counter (order of applied fills)
	l2Accesses uint64

	// pending holds in-flight transactions keyed by (DoneAt, issue
	// order). A merged waiter shares its primary's DoneAt but was issued
	// after it, so the tie-break completes the primary first and the
	// waiter's callback sees the fill the primary applied.
	pending heapq.Heap[*Txn]
	seqGen  uint64
	freeTxn *Txn // completed transactions, linked through Txn.next

	Traffic Traffic
	Stats   Stats
}

// New builds the hierarchy.
func New(cfg Config) *Hierarchy {
	if cfg.NumCores <= 0 {
		//simlint:allow errdiscipline -- construction-time core-count validation; a bad config is a programmer error caught before any simulation runs
		panic("memsys: NumCores must be positive")
	}
	h := &Hierarchy{cfg: cfg}
	l2cfg := cfg.L2
	if cfg.RandomizeL2 {
		sets := l2cfg.SizeBytes / arch.LineBytes / l2cfg.Ways
		h.l2index = ceaser.New(sets, cfg.Seed^0x5EED)
		l2cfg.Indexer = h.l2index
	}
	l2cfg.Seed = cfg.Seed ^ 2
	h.l2 = cache.New(l2cfg)
	h.l2mshr = cache.NewMSHR("L2", cfg.L2MSHRs)
	for c := 0; c < cfg.NumCores; c++ {
		l1cfg := cfg.L1
		l1cfg.Name = fmt.Sprintf("L1D%d", c)
		l1cfg.Seed = cfg.Seed ^ uint64(3+c)
		h.l1 = append(h.l1, cache.New(l1cfg))
		h.l1mshr = append(h.l1mshr, cache.NewMSHR(l1cfg.Name, cfg.L1MSHRs))
		if cfg.L1I.SizeBytes > 0 {
			icfg := cfg.L1I
			icfg.Name = fmt.Sprintf("L1I%d", c)
			icfg.Seed = cfg.Seed ^ uint64(300+c)
			h.l1i = append(h.l1i, cache.New(icfg))
		}
	}
	h.dir = coherence.NewDirectory(cfg.NumCores)
	h.mem = dram.New(cfg.DRAM)
	h.epoch = make([]uint8, cfg.NumCores)
	h.fillSeq = make([]uint64, cfg.NumCores)
	return h
}

// Config returns the active configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1 returns core's L1 data cache.
func (h *Hierarchy) L1(core int) *cache.Cache { return h.l1[core] }

// L1MSHR returns core's L1 MSHR.
func (h *Hierarchy) L1MSHR(core int) *cache.MSHR { return h.l1mshr[core] }

// L2 returns the shared L2.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// L2MSHR returns the shared L2 MSHR.
func (h *Hierarchy) L2MSHR() *cache.MSHR { return h.l2mshr }

// Directory returns the coherence directory.
func (h *Hierarchy) Directory() *coherence.Directory { return h.dir }

// DRAM returns the memory model.
func (h *Hierarchy) DRAM() *dram.DRAM { return h.mem }

// L2Indexer returns the CEASER indexer, or nil when the L2 is not
// randomized.
func (h *Hierarchy) L2Indexer() *ceaser.Indexer { return h.l2index }

// L1I returns core's instruction cache, or nil when disabled.
func (h *Hierarchy) L1I(core int) *cache.Cache {
	if core >= len(h.l1i) {
		return nil
	}
	return h.l1i[core]
}

// IFetch models an instruction fetch of the line holding pc: an I-cache
// hit costs nothing extra (the 1-cycle RT is part of the front-end
// pipeline); a miss stalls fetch for an L2 or memory round trip and fills
// the I-cache and the inclusive L2. The paper keeps the I-cache outside
// the cache-channel threat model (footnote 1: transient changes to it can
// be delayed or buffered), so fills are unconditional and untracked.
func (h *Hierarchy) IFetch(core int, pc arch.Addr, now arch.Cycle) (ready arch.Cycle) {
	if len(h.l1i) == 0 {
		return now
	}
	line := arch.PCLine(pc)
	ic := h.l1i[core]
	if _, hit := ic.Lookup(line); hit {
		return now
	}
	h.Traffic.add(KindRegular, 1)
	lat := h.L2RT()
	if _, hit := h.l2.Probe(line); !hit {
		h.Traffic.add(KindRegular, 1)
		lat += h.mem.AccessLatency(line, false)
		h.installL2(line, false, core, now)
	}
	ic.Install(line, arch.Shared, 0, now)
	return now + lat
}

// PrewarmICache fills the I-cache (and L2) with a program's code lines, the
// instruction-side counterpart of PrewarmL2.
func (h *Hierarchy) PrewarmICache(core, codeLen int) {
	if len(h.l1i) == 0 {
		return
	}
	for pc := 0; pc < codeLen; pc += arch.LineBytes / arch.InstBytes {
		line := arch.PCLine(arch.Addr(pc))
		h.installL2(line, false, core, 0)
		if _, hit := h.l1i[core].Probe(line); !hit {
			h.l1i[core].Install(line, arch.Shared, 0, 0)
		}
	}
}

// Epoch returns core's current epoch (Section 3.3).
func (h *Hierarchy) Epoch(core int) uint8 { return h.epoch[core] }

// BumpEpoch increments core's epoch: loads issued after a squash carry the
// new EpochID, so their responses are distinguishable from stale ones.
func (h *Hierarchy) BumpEpoch(core int) uint8 {
	h.epoch[core]++
	return h.epoch[core]
}

// L2RT returns the effective L2 round-trip latency (base + encryption).
func (h *Hierarchy) L2RT() arch.Cycle {
	lat := h.cfg.L2RT
	if h.l2index != nil {
		lat += h.l2index.ExtraLatency()
	} else if h.cfg.L2.Indexer != nil {
		lat += h.cfg.L2.Indexer.ExtraLatency()
	}
	return lat
}

// LoadOpts modifies how a load is issued.
type LoadOpts struct {
	Spec bool
	// Owner identifies the hardware thread within the core for way
	// partitioning and speculative-install attribution (SMT). Zero is
	// thread 0; single-threaded cores leave it unset.
	Owner int
	// NoFill performs an invisible access (InvisiSpec's speculative
	// load): data is read, nothing in the hierarchy changes.
	NoFill bool
	// SafeGetS issues the coherence read as GetS-Safe; if the line is
	// owned by a remote core the load is not performed and Level ==
	// LevelDelayed is returned (CleanupSpec, Section 3.5).
	SafeGetS bool
	Kind     Kind
}

// Load issues a load of line for core at time now and calls onDone (if
// non-nil) when the data returns, with the Txn's Tag set to tag: a caller
// that passes one long-lived callback for all its loads tells them apart
// by tag. Load reports the issue outcome and true, or false if an MSHR
// could not be allocated (the caller retries). If opts.SafeGetS fails, it
// reports Level == LevelDelayed, touches no state and never calls onDone.
func (h *Hierarchy) Load(core int, line arch.LineAddr, now arch.Cycle, seq uint64, opts LoadOpts, onDone func(*Txn), tag int32) (Issue, bool) {
	if opts.SafeGetS && h.dir.RemoteOwner(core, line) >= 0 {
		h.Stats.SafeGetSDelays++
		return Issue{Level: LevelDelayed}, true
	}

	t := h.freeTxn
	if t == nil {
		//simlint:allow hotalloc -- grows the transaction pool only while every pooled Txn is in flight; bounded by the loads in flight
		t = &Txn{}
	} else {
		//simlint:allow undocomplete -- transaction free list: host memory reuse, not modelled cache state; a squash has nothing to restore
		h.freeTxn = t.next
	}
	*t = Txn{
		Core: core, Line: line, Seq: seq, Tag: tag, Kind: opts.Kind,
		Spec: opts.Spec, NoFill: opts.NoFill, Owner: opts.Owner,
		Epoch: h.epoch[core], Issued: now, onDone: onDone,
	}
	t.SEFE.L1Way = -1

	l1 := h.l1[core]
	if opts.NoFill {
		return h.loadInvisible(t, now), true
	}

	h.Stats.Loads++
	h.Traffic.add(opts.Kind, 1) // L1 access message

	if _, hit := l1.Lookup(line); hit {
		// Cross-core window protection: a hit on a line another core
		// installed speculatively is serviced with dummy-miss latency
		// (Section 3.6). No state changes.
		if h.cfg.ProtectSpecWindow {
			if spec, by := l1.SpecInfo(line); spec && by != SMTID(core, opts.Owner) {
				h.Stats.DummyMisses++
				h.Traffic.add(opts.Kind, 1) // dummy backing-store request
				t.Level = LevelL1
				t.DoneAt = now + h.cfg.L1RT + h.dummyMissLatency(line)
				return h.push(t), true
			}
		}
		h.Stats.LoadL1Hits++
		t.Level = LevelL1
		t.DoneAt = now + h.cfg.L1RT
		return h.push(t), true
	}

	// L1 miss: allocate or merge an L1 MSHR entry.
	mshr := h.l1mshr[core]
	entry, merged, ok := mshr.Allocate(line, seq)
	if !ok {
		h.recycle(t)
		return Issue{}, false
	}
	if merged {
		t.DoneAt = entry.ReadyAt
		t.Level = levelOfReady(entry)
		return h.push(t), true
	}
	entry.SEFE.IsSpec = opts.Spec
	entry.SEFE.EpochID = h.epoch[core]
	t.Primary = true
	t.entry = entry

	h.Traffic.add(opts.Kind, 1) // L1 -> L2 request
	h.l2AccessTick()

	// Coherence: take the directory grant now (at issue) so GetS-Safe
	// semantics and remote downgrades are decided before any timing is
	// observable. Paper Section 3.5 allows these transient sharer-set
	// changes because they are reversed on cleanup and a remote M/E
	// downgrade is excluded by the SafeGetS check above.
	grant := h.dir.GetS(core, line)
	h.applyRemoteActions(line, grant)

	if _, hit := h.l2.Lookup(line); hit || grant.Source == coherence.SrcRemote {
		h.Stats.LoadL2Hits++
		t.Level = LevelL2
		lat := h.L2RT()
		// Window protection also covers the shared L2: a cross-core
		// hit on a speculatively installed copy is serviced at
		// backing-store latency (Section 3.6).
		if h.cfg.ProtectSpecWindow {
			if spec, by := h.l2.SpecInfo(line); spec && by != SMTID(core, opts.Owner) {
				h.Stats.DummyMisses++
				h.Traffic.add(opts.Kind, 1)
				lat += h.cfg.DRAM.RTCycles
			}
		}
		t.DoneAt = now + h.cfg.L1RT + lat
	} else {
		// L2 miss: needs an L2 MSHR entry and a memory access.
		l2e, l2merged, l2ok := h.l2mshr.Allocate(line, seq)
		if !l2ok {
			mshr.Release(entry)
			h.dir.Evict(core, line, false) // roll back the grant
			h.recycle(t)
			return Issue{}, false
		}
		if !l2merged {
			l2e.SEFE.IsSpec = opts.Spec
			l2e.SEFE.EpochID = h.epoch[core]
			t.l2entry = l2e
		}
		h.Stats.LoadMems++
		h.Traffic.add(opts.Kind, 1) // L2 -> memory request
		memLat := h.mem.AccessLatency(line, false)
		t.Level = LevelMem
		t.DoneAt = now + h.cfg.L1RT + h.L2RT() + memLat
		entry.SEFE.L2Fill = true
	}
	entry.ReadyAt = t.DoneAt
	return h.push(t), true
}

// loadInvisible performs an InvisiSpec-style speculative access: correct
// latency, zero state change (no fills, no LRU update, no MSHR).
func (h *Hierarchy) loadInvisible(t *Txn, now arch.Cycle) Issue {
	h.Stats.Loads++
	h.Traffic.add(t.Kind, 1)
	if _, hit := h.l1[t.Core].Probe(t.Line); hit {
		h.Stats.LoadL1Hits++
		t.Level = LevelL1
		t.DoneAt = now + h.cfg.L1RT
		return h.push(t)
	}
	h.Traffic.add(t.Kind, 1)
	if _, hit := h.l2.Probe(t.Line); hit {
		h.Stats.LoadL2Hits++
		t.Level = LevelL2
		t.DoneAt = now + h.cfg.L1RT + h.L2RT()
		return h.push(t)
	}
	h.Stats.LoadMems++
	h.Traffic.add(t.Kind, 1)
	memLat := h.mem.AccessLatency(t.Line, false)
	t.Level = LevelMem
	t.DoneAt = now + h.cfg.L1RT + h.L2RT() + memLat
	return h.push(t)
}

func levelOfReady(e *cache.MSHREntry) Level {
	if e.SEFE.L2Fill {
		return LevelMem
	}
	return LevelL2
}

// dummyMissLatency is the latency charged for a window-protected access:
// as if the line had to be fetched from the backing store (Section 3.6) —
// from the L2 when the L2 holds a non-speculative copy, else from memory.
func (h *Hierarchy) dummyMissLatency(line arch.LineAddr) arch.Cycle {
	if _, hit := h.l2.Probe(line); hit {
		if spec, _ := h.l2.SpecInfo(line); !spec {
			return h.L2RT()
		}
	}
	return h.L2RT() + h.cfg.DRAM.RTCycles
}

// applyRemoteActions applies directory-prescribed downgrades and
// invalidations for line to remote L1s.
func (h *Hierarchy) applyRemoteActions(line arch.LineAddr, g coherence.Grant) {
	for _, c := range g.Downgrades {
		h.l1[c].SetState(line, arch.Shared)
	}
	for _, c := range g.Invalidates {
		h.l1[c].Invalidate(line)
	}
}

// SMTID folds a core id and a hardware-thread id into the installer
// identity used by speculative-install marks, so SMT siblings sharing one
// L1 are distinguishable (Section 3.6's SMT adversary).
func SMTID(core, owner int) int { return core*64 + owner }

// SquashLoad tells the hierarchy that the load identified by (line, seq) on
// core was squashed while its miss may still be in flight. If it was the
// last waiter, the entry turns into a zombie and its fill will be dropped.
// It reports whether an in-flight entry was affected.
func (h *Hierarchy) SquashLoad(core int, line arch.LineAddr, seq uint64) bool {
	return h.l1mshr[core].SquashWaiter(line, seq)
}

// push schedules t to complete at t.DoneAt and reports the issue outcome.
// The queue keys on the value at push time, so DoneAt must be final by
// then.
func (h *Hierarchy) push(t *Txn) Issue {
	//simlint:allow undocomplete -- monotone tie-break sequence for the pending heap; IDs are never reused, so a squash must not rewind it
	h.seqGen++
	h.pending.Push(t.DoneAt, h.seqGen, t)
	return Issue{Level: t.Level, DoneAt: t.DoneAt}
}

// recycle returns t to the free list. Nothing may touch t afterwards.
func (h *Hierarchy) recycle(t *Txn) {
	t.next = h.freeTxn
	h.freeTxn = t
}

// Tick completes every transaction due at or before now. The CPU calls it
// once per cycle before its writeback stage.
func (h *Hierarchy) Tick(now arch.Cycle) {
	for h.pending.Due(now) {
		h.complete(h.pending.Pop().Val)
	}
}

// PendingLen reports the number of in-flight transactions.
func (h *Hierarchy) PendingLen() int { return h.pending.Len() }

// NextPending reports the cycle the earliest in-flight transaction
// completes, and false when none is in flight.
func (h *Hierarchy) NextPending() (arch.Cycle, bool) {
	it, ok := h.pending.Peek()
	return it.At, ok
}

func (h *Hierarchy) complete(t *Txn) {
	if t.Primary {
		h.completePrimary(t)
	}
	if t.onDone != nil {
		t.onDone(t)
	}
	h.recycle(t)
}

func (h *Hierarchy) completePrimary(t *Txn) {
	// Release recycles the entry, so read it first.
	entry := t.entry
	squashed, sefe := entry.Squashed, entry.SEFE
	h.l1mshr[t.Core].Release(entry)
	if t.l2entry != nil {
		h.l2mshr.Release(t.l2entry)
	}
	if squashed {
		// Section 3.3: data returned for a squashed entry is dropped;
		// no cache state changes at all.
		h.Stats.DroppedFills++
		h.l1mshr[t.Core].Stats.Dropped++
		t.Dropped = true
		return
	}
	// Apply fills top-down: L2 first (on a memory response), then L1.
	if t.Level == LevelMem {
		h.installL2(t.Line, t.Spec, t.Core, t.DoneAt)
	}
	l1 := h.l1[t.Core]
	if _, already := l1.Probe(t.Line); !already {
		evicted, way := l1.Install(t.Line, h.grantStateFor(t.Core, t.Line), t.Owner, t.DoneAt)
		if t.Spec {
			l1.MarkSpec(t.Line, SMTID(t.Core, t.Owner))
		}
		sefe.L1Fill = true
		sefe.L1Way = way
		if evicted.Valid() {
			sefe.L1EvictValid = true
			sefe.L1EvictAddr = evicted.Tag
			sefe.L1EvictDirty = evicted.Dirty
			sefe.L1EvictState = evicted.State
			h.dir.Evict(t.Core, evicted.Tag, evicted.Dirty)
			if evicted.Dirty {
				h.Traffic.Writebacks++
				h.l2.MarkDirty(evicted.Tag)
			}
		}
	}
	//simlint:allow undocomplete -- monotone per-core fill sequence used to stamp SEFE LoadIDs; rewinding on squash would let a stale fill alias a live one
	h.fillSeq[t.Core]++
	sefe.LoadID = uint8(h.fillSeq[t.Core])
	t.SEFE = sefe
}

// FillOrder returns the running fill counter for core; cleanup uses it to
// order operations (the full-width shadow of the 8-bit LoadID).
func (h *Hierarchy) FillOrder(core int) uint64 { return h.fillSeq[core] }

// grantStateFor reflects the directory's current view for the install.
func (h *Hierarchy) grantStateFor(core int, line arch.LineAddr) arch.CohState {
	st := h.dir.State(core, line)
	if st == arch.Invalid {
		// The directory grant was rolled back or single-core fast path.
		return arch.Exclusive
	}
	return st
}

// installL2 installs line into the L2, maintaining inclusion by
// back-invalidating any L1 copies of the victim.
func (h *Hierarchy) installL2(line arch.LineAddr, spec bool, core int, now arch.Cycle) {
	if _, hit := h.l2.Probe(line); hit {
		return
	}
	evicted, _ := h.l2.Install(line, arch.Shared, 0, now)
	if spec {
		h.l2.MarkSpec(line, core)
	}
	if evicted.Valid() {
		// Inclusive hierarchy: the L2 victim must leave all L1s.
		for c := range h.l1 {
			if old, ok := h.l1[c].Invalidate(evicted.Tag); ok {
				if old.Dirty {
					h.Traffic.Writebacks++
				}
				h.dir.Evict(c, evicted.Tag, old.Dirty)
			}
		}
		if evicted.Dirty {
			h.Traffic.Writebacks++
			h.mem.AccessLatency(evicted.Tag, true)
		}
	}
}

// Store performs a committed (non-speculative) store of line: the paper
// issues RFOs non-speculatively (Section 4a), so stores reach the hierarchy
// only after commit and their fills are applied immediately. The returned
// latency is informational; committed stores drain off the critical path.
func (h *Hierarchy) Store(core int, line arch.LineAddr, now arch.Cycle) arch.Cycle {
	return h.StoreOwned(core, 0, line, now)
}

// StoreOwned is Store with an explicit hardware-thread owner (SMT way
// partitioning).
func (h *Hierarchy) StoreOwned(core, owner int, line arch.LineAddr, now arch.Cycle) arch.Cycle {
	h.Stats.Stores++
	h.Traffic.add(KindRegular, 1)
	l1 := h.l1[core]
	if _, hit := l1.Lookup(line); hit && l1.State(line).IsOwned() {
		l1.MarkDirty(line)
		l1.ClearSpec(line)
		h.dir.GetX(core, line)
		h.l2.MarkDirty(line)
		return h.cfg.L1RT
	}
	// Miss or upgrade: RFO.
	grant := h.dir.GetX(core, line)
	h.applyRemoteActions(line, grant)
	h.Traffic.add(KindRegular, 1)
	lat := h.cfg.L1RT + h.L2RT()
	if _, hit := h.l2.Probe(line); !hit {
		h.Traffic.add(KindRegular, 1)
		lat += h.mem.AccessLatency(line, false)
		h.installL2(line, false, core, now)
	}
	if _, hit := l1.Probe(line); !hit {
		evicted, _ := l1.Install(line, arch.Modified, owner, now)
		if evicted.Valid() {
			h.dir.Evict(core, evicted.Tag, evicted.Dirty)
			if evicted.Dirty {
				h.Traffic.Writebacks++
				h.l2.MarkDirty(evicted.Tag)
			}
		}
	}
	l1.MarkDirty(line)
	h.l2.MarkDirty(line)
	return lat
}

// Flush performs a committed clflush of line: every cached copy anywhere is
// invalidated (Table 2's second row; CleanupSpec delays the instruction
// until commit, which the CPU enforces). All L1s are swept directly because
// the directory only tracks lines with active L1 holders.
func (h *Hierarchy) Flush(core int, line arch.LineAddr) {
	h.Stats.Flushes++
	h.Traffic.add(KindRegular, 1)
	h.dir.Flush(line)
	for c := range h.l1 {
		h.l1[c].Invalidate(line)
	}
	if old, ok := h.l2.Invalidate(line); ok && old.Dirty {
		h.Traffic.Writebacks++
		h.mem.AccessLatency(line, true)
	}
}

// ProbeLevel reports where line would hit right now, with no side effects.
func (h *Hierarchy) ProbeLevel(core int, line arch.LineAddr) Level {
	if _, hit := h.l1[core].Probe(line); hit {
		return LevelL1
	}
	if _, hit := h.l2.Probe(line); hit {
		return LevelL2
	}
	return LevelMem
}

// --- cleanup operations used by the CleanupSpec policy (Section 3.4) ---

// CleanupInvalidateL1 removes a transiently installed line from core's L1.
func (h *Hierarchy) CleanupInvalidateL1(core int, line arch.LineAddr) bool {
	h.Stats.CleanupInvals++
	h.Traffic.add(KindCleanup, 1)
	old, ok := h.l1[core].Invalidate(line)
	if ok {
		h.dir.Evict(core, line, old.Dirty)
	}
	return ok
}

// CleanupInvalidateL2 removes a transiently installed line from the L2
// (evictions from the randomized L2 are benign, so no restore is needed).
// Inclusion is preserved: any L1 copy goes too.
func (h *Hierarchy) CleanupInvalidateL2(line arch.LineAddr) bool {
	h.Stats.CleanupInvals++
	h.Traffic.add(KindCleanup, 1)
	for c := range h.l1 {
		if old, ok := h.l1[c].Invalidate(line); ok {
			h.dir.Evict(c, line, old.Dirty)
		}
	}
	_, ok := h.l2.Invalidate(line)
	return ok
}

// RestoreL1 reinstates the victim recorded in sefe into the exact way it
// was evicted from, fetching it from the inclusive L2 (or memory if the
// randomized L2 has since evicted it). It returns the latency of the
// restore access.
func (h *Hierarchy) RestoreL1(core int, sefe cache.SEFE, now arch.Cycle) arch.Cycle {
	if !sefe.L1EvictValid {
		return 0
	}
	h.Stats.Restores++
	h.l1[core].Stats.Restores++
	h.Traffic.add(KindCleanup, 1)
	lat := h.L2RT()
	if _, hit := h.l2.Probe(sefe.L1EvictAddr); !hit {
		// The L2 no longer holds the victim (randomized eviction since,
		// or it was flushed): fetch from memory.
		lat += h.mem.AccessLatency(sefe.L1EvictAddr, false)
		h.installL2(sefe.L1EvictAddr, false, core, now)
	}
	if _, present := h.l1[core].Probe(sefe.L1EvictAddr); present {
		// A correct-path access already brought the victim back.
		return lat
	}
	set := h.l1[core].SetFor(sefe.L1EvictAddr)
	// The restored copy is clean: dirty data was written back to the L2
	// at eviction time, which still has it.
	st := sefe.L1EvictState
	if st == arch.Modified {
		st = arch.Exclusive
	}
	h.l1[core].InstallAt(set, sefe.L1Way, sefe.L1EvictAddr, st, now)
	h.dir.GetS(core, sefe.L1EvictAddr)
	return lat
}

// CommitUpdate performs InvisiSpec's second ("update") access for a load
// that was speculatively issued invisibly: the buffered data is written into
// the caches and a validation message is exchanged with the L2/directory to
// check for consistency violations (Section 2.3.1). The returned latency is
// the exposure on the commit critical path — the validation round trip —
// since the data itself is already on-core in the speculative buffer.
func (h *Hierarchy) CommitUpdate(core int, line arch.LineAddr, now arch.Cycle) arch.Cycle {
	h.Traffic.add(KindUpdate, 1) // validation/expose message
	exposure := h.L2RT()
	l1 := h.l1[core]
	if _, hit := l1.Lookup(line); hit {
		return exposure
	}
	grant := h.dir.GetS(core, line)
	h.applyRemoteActions(line, grant)
	if _, hit := h.l2.Probe(line); !hit {
		h.Traffic.add(KindUpdate, 1) // fill the L2 from the buffered copy
		h.installL2(line, false, core, now)
	}
	evicted, _ := l1.Install(line, h.grantStateFor(core, line), core, now)
	if evicted.Valid() {
		h.dir.Evict(core, evicted.Tag, evicted.Dirty)
		if evicted.Dirty {
			h.Traffic.Writebacks++
			h.l2.MarkDirty(evicted.Tag)
		}
	}
	return exposure
}

// ClearSpecMark clears window-tracking marks once a load retires safely.
func (h *Hierarchy) ClearSpecMark(core int, line arch.LineAddr) {
	h.l1[core].ClearSpec(line)
	h.l2.ClearSpec(line)
}

// l2AccessTick paces CEASER's gradual remap: every L2RemapEvery L2
// accesses one set is relocated; epochs chain continuously.
func (h *Hierarchy) l2AccessTick() {
	if h.cfg.L2RemapEvery == 0 || h.l2index == nil {
		return
	}
	//simlint:allow undocomplete -- remap-interval access odometer; squashed accesses still occupied the L2 port, so the count stands
	h.l2Accesses++
	if h.l2Accesses%h.cfg.L2RemapEvery != 0 {
		return
	}
	if !h.l2index.Remapping() {
		h.l2index.StartRemap(h.cfg.Seed ^ h.l2Accesses)
	}
	h.L2RemapStep()
}

// L2StartRemap begins a gradual remap epoch toward a fresh key (randomized
// L2 only; no-op otherwise).
func (h *Hierarchy) L2StartRemap(seed uint64) {
	if h.l2index != nil {
		h.l2index.StartRemap(seed)
	}
}

// L2RemapStep relocates the lines of the next set (CEASER's SPtr walk) and
// advances the pointer. Lines that were *placed* in the set under the
// current key move to their next-key set; lines already relocated into the
// set stay. It returns the number of lines moved.
func (h *Hierarchy) L2RemapStep() (moved int) {
	ix := h.l2index
	if ix == nil || !ix.Remapping() {
		return 0
	}
	s := ix.SPtr()
	type mover struct {
		line  arch.LineAddr
		dirty bool
	}
	var movers []mover
	for w := 0; w < h.l2.Ways(); w++ {
		ln := h.l2.LineAt(s, w)
		if ln.Valid() && ix.CurIndex(ln.Tag) == s && ix.NextIndex(ln.Tag) != s {
			//simlint:allow hotalloc -- remap worklist bounded by L2 associativity, built once per periodic CEASER remap step, not per cycle
			movers = append(movers, mover{ln.Tag, ln.Dirty})
		}
	}
	for _, mv := range movers {
		h.l2.Invalidate(mv.line)
	}
	ix.AdvanceSPtr()
	for _, mv := range movers {
		h.installL2(mv.line, false, 0, 0)
		if mv.dirty {
			h.l2.MarkDirty(mv.line)
		}
		moved++
	}
	return moved
}

// PrewarmL2 fills the empty L2 with the n consecutive lines from first
// (clean, non-speculative), exactly as installing them one at a time in
// address order would, without any timing or traffic effects — experiment
// harnesses use it to stand in for the cache state after the paper's
// 10-billion-instruction fast-forward. An empty inclusive L2 means empty
// L1s, so its evictions need no back-invalidation. It panics if the L2 is
// not empty (see cache.Cache.Prewarm).
func (h *Hierarchy) PrewarmL2(first arch.LineAddr, n int) {
	h.l2.Prewarm(first, n, arch.Shared)
}

// AttachMetrics registers the hierarchy's counters and gauges into reg:
// its own Stats and Traffic fields, core 0's L1D, the shared L2, both MSHR
// levels, the coherence directory, and the DRAM model. Every binding is a
// pointer to an existing struct field (or a closure over one), so the
// simulation hot path is untouched; the registry reads the fields only at
// snapshot time. Per-core breakouts beyond core 0 are intentionally
// omitted — the single-core experiments dominate, and the shared
// structures (L2, directory, DRAM) cover the multicore signal.
func (h *Hierarchy) AttachMetrics(reg *metrics.Registry) {
	s := &h.Stats
	reg.BindCounter("mem.loads", &s.Loads)
	reg.BindCounter("mem.load_l1_hits", &s.LoadL1Hits)
	reg.BindCounter("mem.load_l2_hits", &s.LoadL2Hits)
	reg.BindCounter("mem.load_mems", &s.LoadMems)
	reg.BindCounter("mem.stores", &s.Stores)
	reg.BindCounter("mem.flushes", &s.Flushes)
	reg.BindCounter("mem.dropped_fills", &s.DroppedFills)
	reg.BindCounter("mem.dummy_misses", &s.DummyMisses)
	reg.BindCounter("mem.restores", &s.Restores)
	reg.BindCounter("mem.cleanup_invals", &s.CleanupInvals)
	reg.BindCounter("mem.safe_gets_delays", &s.SafeGetSDelays)
	t := &h.Traffic
	reg.BindCounter("traffic.regular", &t.Regular)
	reg.BindCounter("traffic.invisible", &t.Invisible)
	reg.BindCounter("traffic.update", &t.Update)
	reg.BindCounter("traffic.cleanup", &t.Cleanup)
	reg.BindCounter("traffic.writebacks", &t.Writebacks)
	reg.GaugeFunc("mem.pending_txns", func() float64 { return float64(h.pending.Len()) })
	h.l1[0].AttachMetrics(reg, "l1d")
	h.l1mshr[0].AttachMetrics(reg, "l1d.mshr")
	h.l2.AttachMetrics(reg, "l2")
	h.l2mshr.AttachMetrics(reg, "l2.mshr")
	h.dir.AttachMetrics(reg)
	h.mem.AttachMetrics(reg)
}

// ResetTraffic zeroes the traffic counters.
func (h *Hierarchy) ResetTraffic() { h.Traffic = Traffic{} }

// ResetStats zeroes all measurement counters (traffic, hierarchy, cache and
// DRAM stats) without touching cache contents — used to exclude warmup from
// a measurement window.
func (h *Hierarchy) ResetStats() {
	h.Traffic = Traffic{}
	h.Stats = Stats{}
	for _, c := range h.l1 {
		c.ResetStats()
	}
	h.l2.ResetStats()
	h.mem.ResetStats()
}
