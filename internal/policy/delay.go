// Package policy holds the simpler delay-based baselines the paper's
// related-work section discusses (Context-Sensitive Fencing, Conditional
// Speculation, NDA/SpecShield-style delaying): speculative loads are held
// until they are unsquashable. It exists for ablation comparisons against
// CleanupSpec's Undo approach.
package policy

import "repro/internal/cpu"

// Delay holds every speculative load until all older control flow has
// resolved, the strictest delay-based mitigation. A squash has nothing to
// clean: delayed loads never touched the cache.
type Delay struct{ cpu.NoHooks }

// Name implements cpu.Policy.
func (Delay) Name() string { return "delay-all" }

// Mode implements cpu.Policy.
func (Delay) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	if spec {
		return cpu.LoadDelayed
	}
	return cpu.LoadNormal
}

// DelayOnMiss is the Conditional Speculation baseline (Li et al., HPCA
// 2019): speculative loads that hit the L1 proceed (a hit "leaks" only
// replacement state), speculative misses are delayed until unsquashable.
// The paper positions CleanupSpec as both faster and more complete than
// such filters (Section 7.3.2). A squash has nothing to clean: delayed
// misses never touched the cache, and speculative hits changed no tag
// state (the L1 uses its normal replacement policy here — the filter's
// known residual channel).
type DelayOnMiss struct{ cpu.NoHooks }

// Name implements cpu.Policy.
func (DelayOnMiss) Name() string { return "delay-on-miss" }

// Mode implements cpu.Policy.
func (DelayOnMiss) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	if spec {
		return cpu.LoadDelayOnMiss
	}
	return cpu.LoadNormal
}
