package cpu

import (
	"repro/internal/arch"
)

// LoadMode says how a speculative load may access the memory hierarchy.
type LoadMode int

// Load issue modes.
const (
	// LoadNormal lets the load access and modify the caches (non-secure
	// baseline, and CleanupSpec's common case).
	LoadNormal LoadMode = iota
	// LoadNormalSafe is LoadNormal with GetS-Safe coherence (CleanupSpec
	// Section 3.5): if the line is owned by a remote core, the load is
	// delayed until it is unsquashable and then retried as LoadNormal.
	LoadNormalSafe
	// LoadInvisible reads data without any cache state change
	// (InvisiSpec's speculative load).
	LoadInvisible
	// LoadDelayed blocks the load until it is unsquashable
	// (the strictest delay-on-speculation baseline).
	LoadDelayed
	// LoadDelayOnMiss lets speculative L1 hits proceed but blocks
	// speculative L1 misses until they are unsquashable — Conditional
	// Speculation's filter (Li et al., HPCA 2019), one of the paper's
	// delay-based comparison points (Section 7.3.2).
	LoadDelayOnMiss
	// LoadValuePredict delays speculative L1 misses like LoadDelayOnMiss
	// but completes them immediately with a predicted value (Sakalis et
	// al., ISCA 2019, the "~10% slowdown" related work in Section
	// 7.3.2); the real access runs once the load is unsquashable and a
	// wrong prediction squashes the dependents. Policies returning this
	// mode must implement ValuePredictor.
	LoadValuePredict
)

// ValuePredictor is the extra interface a policy using LoadValuePredict
// must implement.
type ValuePredictor interface {
	// PredictValue supplies the speculative value for a delayed load.
	PredictValue(m *Machine, e *LQEntry) uint64
}

// SquashCost is the front-end stall a policy charges for one squash, split
// the way the paper's Figure 14 reports it.
type SquashCost struct {
	// InflightWait is the time spent waiting for older, correct-path
	// in-flight loads to complete before cleanup may begin (Section 3.4,
	// "Avoiding Recursive Squash During Cleanup").
	InflightWait arch.Cycle
	// CleanupOps is the time the invalidate/restore operations take.
	CleanupOps arch.Cycle
}

// SquashedLoad describes one load removed by a squash, in program order.
type SquashedLoad struct {
	Seq       uint64
	Line      arch.LineAddr
	HasAddr   bool
	Issued    bool
	Forwarded bool
	Completed bool
	Inflight  bool // issued but data not yet returned
	Level     Level
	SEFE      SEFEInfo
	FillOrder uint64
}

// Policy is the security policy driving speculative loads. The machine
// calls it at load issue, at the point a load becomes unsquashable, at
// commit, and on every squash. internal/core implements CleanupSpec;
// internal/invisispec implements the Redo baseline; NonSecure below is the
// insecure baseline.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Mode picks the issue mode for a load. spec reports whether the
	// load still has older unresolved control flow (i.e. is squashable).
	Mode(m *Machine, e *LQEntry, spec bool) LoadMode
	// DeferWakeupUntilVisible, when true, delays waking a load's
	// dependents until the load's visibility point (InvisiSpec-Initial's
	// modeling choice, Section 6.5).
	DeferWakeupUntilVisible() bool
	// OnLoadUnsquashable is called once when a completed load is no
	// longer squashable (all older control flow resolved).
	OnLoadUnsquashable(m *Machine, e *LQEntry)
	// OnLoadNearCommit is called when a completed load enters the
	// commit window (the oldest few ROB entries); InvisiSpec launches
	// its update/validation access here so validations pipeline across
	// the window instead of serializing at the head.
	OnLoadNearCommit(m *Machine, e *LQEntry)
	// CommitWait returns how many more cycles the load must hold the ROB
	// head before it may retire (e.g. an unfinished validation).
	CommitWait(m *Machine, e *LQEntry) arch.Cycle
	// OnLoadCommitted is called as the load retires.
	OnLoadCommitted(m *Machine, e *LQEntry)
	// OnSquash is called after architectural rollback with the squashed
	// loads in program order; it performs any state cleanup and returns
	// the front-end stall. The slice is valid only during the call: the
	// machine reuses it for the next squash.
	OnSquash(m *Machine, squashed []SquashedLoad) SquashCost
	// DropSquashedInflight reports whether in-flight fills of squashed
	// loads must be dropped (CleanupSpec) or may land (non-secure).
	DropSquashedInflight() bool
}

// NoHooks is the no-op default for every Policy hook but Name and Mode:
// wakeups are not deferred, a load needs no work when it becomes
// unsquashable, nears commit or retires, a squash costs nothing beyond
// the pipeline refill, and squashed in-flight fills may land. A policy
// embeds it and writes only Name, Mode and the hooks it changes.
type NoHooks struct{}

// DeferWakeupUntilVisible implements Policy.
func (NoHooks) DeferWakeupUntilVisible() bool { return false }

// OnLoadUnsquashable implements Policy.
func (NoHooks) OnLoadUnsquashable(*Machine, *LQEntry) {}

// OnLoadNearCommit implements Policy.
func (NoHooks) OnLoadNearCommit(*Machine, *LQEntry) {}

// CommitWait implements Policy.
func (NoHooks) CommitWait(*Machine, *LQEntry) arch.Cycle { return 0 }

// OnLoadCommitted implements Policy.
func (NoHooks) OnLoadCommitted(*Machine, *LQEntry) {}

// OnSquash implements Policy.
func (NoHooks) OnSquash(*Machine, []SquashedLoad) SquashCost { return SquashCost{} }

// DropSquashedInflight implements Policy.
func (NoHooks) DropSquashedInflight() bool { return false }

// NonSecure is the unprotected baseline: speculative loads modify the
// caches and squashes leave every change behind.
type NonSecure struct{ NoHooks }

// Name implements Policy.
func (NonSecure) Name() string { return "nonsecure" }

// Mode implements Policy.
func (NonSecure) Mode(*Machine, *LQEntry, bool) LoadMode { return LoadNormal }
