// Package core implements CleanupSpec, the paper's primary contribution: an
// Undo approach to safe speculation. Speculative loads access and modify
// the caches normally; when a mis-speculation is detected, the changes the
// squashed loads made are rolled back (L1 installs invalidated and their
// eviction victims restored), invalidated (randomized L2 installs), or were
// never allowed transiently in the first place (coherence downgrades via
// GetS-Safe, clflush at commit, replacement state via L1 random replacement
// and L2 randomization).
//
// The policy plugs into the cpu.Machine's Policy interface; the intended
// hierarchy configuration (randomized L2, random-replacement L1, spec-window
// protection) is produced by HierarchyConfig.
package core

import (
	"sort"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config tunes the CleanupSpec policy.
type Config struct {
	// ConstantTimeCleanup, when non-zero, pads every cleanup stall to at
	// least this many cycles — the constant-time hardening the paper's
	// Section 4(b) leaves to future work. Zero disables padding.
	ConstantTimeCleanup arch.Cycle
	// DisableRestore turns off victim restoration, leaving only
	// invalidation — the naive design of Section 2.4.1 that remains
	// vulnerable to Prime+Probe. It exists for the security tests;
	// production configurations must keep it false.
	DisableRestore bool
}

// WindowExtensionPeriod is how long a speculatively installed line's SEFE
// stays active before the core must send an extension message (Section 3.6:
// ">98% of loads commit/squash within 200 cycles").
const WindowExtensionPeriod arch.Cycle = 200

// Stats counts cleanup activity (Figures 13-15, Table 5).
type Stats struct {
	Cleanups            uint64 // squashes processed
	CleanupFreeSquashes uint64 // squashes needing zero cleanup operations
	InvalidationsL1     uint64
	InvalidationsL2     uint64
	Restores            uint64
	SkippedLive         uint64 // ops skipped: line justified by live loads
	SkippedNonSpec      uint64 // ops skipped: spec mark already cleared
	DroppedInflight     uint64 // squashed loads whose fills were dropped
	ExecutedCleaned     uint64 // squashed loads that needed cleanup ops
	WindowExtensions    uint64 // SEFE keep-alive messages (Section 3.6)
	LoadsObserved       uint64 // committed loads (extension-rate denominator)
}

// CleanupSpec is the Undo policy (implements cpu.Policy). It forwards
// speculative data to dependents immediately, and a correctly speculated
// load retires with no extra work — the entire point of the Undo approach:
// nothing happens when a load becomes unsquashable (the machine clears
// window marks at commit) or nears commit.
type CleanupSpec struct {
	cpu.NoHooks
	cfg Config

	Stats Stats

	restoreLat *metrics.Histogram // nil unless AttachMetrics was called
}

// New returns a CleanupSpec policy with the paper's configuration.
func New() *CleanupSpec {
	return &CleanupSpec{}
}

// NewWithConfig returns a CleanupSpec policy with explicit knobs (ablations
// and security tests).
func NewWithConfig(cfg Config) *CleanupSpec {
	return &CleanupSpec{cfg: cfg}
}

// HierarchyConfig converts a base hierarchy configuration into the one
// CleanupSpec requires: random replacement for the L1 (Section 3.2), CEASER
// randomization for the L2, and speculation-window protection (Section 3.6).
func HierarchyConfig(base memsys.Config) memsys.Config {
	base.L1.Repl = cache.ReplRandom
	base.RandomizeL2 = true
	base.ProtectSpecWindow = true
	return base
}

// Name implements cpu.Policy.
func (p *CleanupSpec) Name() string { return "cleanupspec" }

// Mode implements cpu.Policy: loads proceed normally, with GetS-Safe
// coherence for speculative ones, which delays a speculative load that
// would downgrade a remote M/E line (Section 3.5).
func (p *CleanupSpec) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	if spec {
		return cpu.LoadNormalSafe
	}
	return cpu.LoadNormal
}

// OnLoadCommitted implements cpu.Policy: loads that stayed speculative
// beyond WindowExtensionPeriod sent keep-alive messages so their L2-MSHR
// SEFEs stayed active for cross-core window protection (Section 3.6); the
// paper bounds these at <2% of cache traffic.
func (p *CleanupSpec) OnLoadCommitted(m *cpu.Machine, e *cpu.LQEntry) {
	p.Stats.LoadsObserved++
	if !e.Issued || e.IssuedAt == 0 || e.IssuedAt > m.Now() {
		// The IssuedAt > Now arm is unreachable (issue precedes commit);
		// it makes the subtraction below provably wrap-free.
		return
	}
	if alive := m.Now() - e.IssuedAt; alive > WindowExtensionPeriod {
		p.Stats.WindowExtensions += uint64(alive / WindowExtensionPeriod)
	}
}

// ExtensionRate returns window-extension messages per committed load.
func (p *CleanupSpec) ExtensionRate() float64 {
	if p.Stats.LoadsObserved == 0 {
		return 0
	}
	return float64(p.Stats.WindowExtensions) / float64(p.Stats.LoadsObserved)
}

// DropSquashedInflight implements cpu.Policy: in-flight fills of squashed
// loads are dropped when the data returns (Section 3.3).
func (p *CleanupSpec) DropSquashedInflight() bool { return true }

// OnSquash implements cpu.Policy: the cleanup itself (Figure 8b).
//
// The machine has already rolled back architectural state and marked stale
// in-flight MSHR entries for dropping. This routine (1) waits for older
// in-flight correct-path loads, (2) undoes the cache changes of executed
// squashed loads in reverse fill order — invalidating installs and
// restoring L1 eviction victims — and (3) returns the front-end stall.
func (p *CleanupSpec) OnSquash(m *cpu.Machine, squashed []cpu.SquashedLoad) cpu.SquashCost {
	p.Stats.Cleanups++
	h := m.Hierarchy()
	coreID := m.CoreID()

	// (1) Wait for in-flight correct-path loads to complete before any
	// cleanup may begin, preventing interference and nested
	// mis-speculation (Section 3.4). The wait applies to *every* squash
	// — the structure must quiesce before the SEFEs can be trusted —
	// which is why it dominates Figure 14's per-squash stall.
	inflightWait := m.OlderInflightWait()

	// Partition the squashed loads.
	var ops []cpu.SquashedLoad
	for _, sl := range squashed {
		switch {
		case sl.Inflight:
			p.Stats.DroppedInflight++
		case sl.Completed && (sl.SEFE.L1Fill || sl.SEFE.L2Fill):
			ops = append(ops, sl)
		}
	}
	if len(ops) == 0 {
		p.Stats.CleanupFreeSquashes++
		cost := cpu.SquashCost{InflightWait: inflightWait}
		if p.cfg.ConstantTimeCleanup > 0 {
			cost.CleanupOps = p.cfg.ConstantTimeCleanup
		}
		return cost
	}

	// (2) Undo the executed transient changes.
	batch := make([]CleanupOp, 0, len(ops))
	for _, sl := range ops {
		batch = append(batch, CleanupOp{Line: sl.Line, SEFE: sl.SEFE, FillOrder: sl.FillOrder})
	}
	nInval, restoreFinish := p.cleanupBatch(h, coreID, m.OwnerID(), batch, m.LineReferencedByLiveLoad, m.Now(), m.Tracer())

	// (3) Stall: invalidations pipeline at one per cycle and overlap with
	// the restores' L2 accesses.
	//simlint:allow cyclemath -- nInval counts invalidations performed by cleanupBatch; a count is never negative
	cleanup := arch.Cycle(nInval)
	if restoreFinish > cleanup {
		cleanup = restoreFinish
	}
	if p.cfg.ConstantTimeCleanup > 0 && cleanup < p.cfg.ConstantTimeCleanup {
		cleanup = p.cfg.ConstantTimeCleanup
	}
	return cpu.SquashCost{InflightWait: inflightWait, CleanupOps: cleanup}
}

// CleanupOp describes one executed squashed load whose cache changes must
// be undone: the line it installed, its SEFE, and its position in fill
// order.
type CleanupOp struct {
	Line      arch.LineAddr
	SEFE      cache.SEFE
	FillOrder uint64
}

// CleanupBatch undoes a batch of transient installs in reverse fill order
// (reverse LoadID, Section 3.4): each still-speculative install is
// invalidated from the L1 (and, if it filled there, the randomized L2) and
// its recorded L1 eviction victim is restored into the exact way it was
// evicted from. live reports lines that non-squashed loads also justify
// (those are preserved). It returns the number of invalidations and the
// cycle offset at which the pipelined restores finish.
//
// The subtlety the reverse order plus the batch map handle: a restore can
// legitimately reintroduce a line that an *older* squashed load installed
// (it was the victim of a younger squashed install); that line has lost its
// speculative mark but must still be invalidated by its own load's cleanup.
func (p *CleanupSpec) CleanupBatch(h *memsys.Hierarchy, coreID int, ops []CleanupOp, live func(arch.LineAddr) bool, now arch.Cycle) (nInval int, restoreFinish arch.Cycle) {
	return p.cleanupBatch(h, coreID, memsys.SMTID(coreID, 0), ops, live, now, nil)
}

// cleanupBatch is CleanupBatch for an SMT thread's installs, recording each
// invalidation and each restore (with its latency) in tr when it is not
// nil.
func (p *CleanupSpec) cleanupBatch(h *memsys.Hierarchy, coreID, owner int, ops []CleanupOp, live func(arch.LineAddr) bool, now arch.Cycle, tr *trace.Ring) (nInval int, restoreFinish arch.Cycle) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].FillOrder > ops[j].FillOrder })

	installedByBatch := make(map[arch.LineAddr]bool, len(ops))
	for _, op := range ops {
		if op.SEFE.L1Fill {
			installedByBatch[op.Line] = true
		}
	}
	batchRestored := make(map[arch.LineAddr]bool)

	// nRestores is a pipelining offset in cycles (one new restore starts
	// per cycle), so it carries the cycle type directly — no signed->Cycle
	// conversion at the use site.
	var nRestores arch.Cycle
	for _, op := range ops {
		p.Stats.ExecutedCleaned++
		// Preserve changes that correct-path execution also justifies
		// (Section 3.4, "Squashing Loads Re-ordered with Correct-Path
		// Loads").
		if live != nil && live(op.Line) {
			p.Stats.SkippedLive++
			continue
		}
		if op.SEFE.L1Fill {
			spec, by := h.L1(coreID).SpecInfo(op.Line)
			if (spec && by == owner) || batchRestored[op.Line] {
				if h.CleanupInvalidateL1(coreID, op.Line) {
					p.Stats.InvalidationsL1++
					nInval++
					if tr != nil {
						tr.Emit(trace.Event{Cycle: now, Kind: trace.KindCleanupInval, Line: op.Line})
					}
				}
				if !p.cfg.DisableRestore && op.SEFE.L1EvictValid {
					lat := h.RestoreL1(coreID, op.SEFE, now)
					if lat > 0 {
						p.Stats.Restores++
						if p.restoreLat != nil {
							p.restoreLat.Observe(uint64(lat))
						}
						if tr != nil {
							tr.Emit(trace.Event{Cycle: now + nRestores, Kind: trace.KindCleanupRestore, Line: op.SEFE.L1EvictAddr, Arg: uint64(lat)})
						}
						if installedByBatch[op.SEFE.L1EvictAddr] {
							batchRestored[op.SEFE.L1EvictAddr] = true
						}
						// Restores are pipelined on the L2 port: one
						// new restore per cycle, each taking its own
						// latency.
						fin := nRestores + lat
						if fin > restoreFinish {
							restoreFinish = fin
						}
						nRestores++
					}
				}
			} else {
				p.Stats.SkippedNonSpec++
			}
		}
		if op.SEFE.L2Fill {
			if spec, by := h.L2().SpecInfo(op.Line); spec && by == owner {
				if h.CleanupInvalidateL2(op.Line) {
					p.Stats.InvalidationsL2++
					nInval++
					if tr != nil {
						tr.Emit(trace.Event{Cycle: now, Kind: trace.KindCleanupInval, Line: op.Line})
					}
				}
			}
		}
	}
	return nInval, restoreFinish
}

// StorageBitsPerCore returns the SEFE storage CleanupSpec adds per core for
// the given queue/MSHR sizes (Section 6.6): one LQ-format SEFE per LQ and
// L1-MSHR entry, one short SEFE per L2-MSHR entry.
func StorageBitsPerCore(lqEntries, l1MSHRs, l2MSHRs int) int {
	return (lqEntries+l1MSHRs)*cache.StorageBitsLQ + l2MSHRs*cache.StorageBitsL2
}
