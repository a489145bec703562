// Package sim is the public API of the CleanupSpec reproduction: it wires a
// security policy, the memory hierarchy, the out-of-order core, and a
// workload together and returns the measurements the paper's tables and
// figures are built from.
//
// Quick start:
//
//	res, err := sim.RunWorkload("astar", sim.Config{Policy: sim.CleanupSpec, Instructions: 300_000})
//	base, _ := sim.RunWorkload("astar", sim.Config{Policy: sim.NonSecure, Instructions: 300_000})
//	fmt.Printf("slowdown: %.1f%%\n", (float64(res.Cycles)/float64(base.Cycles)-1)*100)
//
// The underlying building blocks (program builder, attack toolkit,
// multicore characterization) are re-exported so examples and downstream
// users can construct custom scenarios without importing internal packages.
package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faultinject"
	"repro/internal/invisispec"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/multicore"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Policy names a security policy.
type Policy string

// Available policies.
const (
	// NonSecure is the unprotected baseline.
	NonSecure Policy = "nonsecure"
	// CleanupSpec is the paper's Undo mechanism with its full hierarchy
	// configuration (random-replacement L1, CEASER L2, window
	// protection, GetS-Safe).
	CleanupSpec Policy = "cleanupspec"
	// InvisiSpecInitial is the Redo baseline with value propagation
	// deferred to the visibility point (the paper's initial estimates).
	InvisiSpecInitial Policy = "invisispec-initial"
	// InvisiSpecRevised is the Redo baseline with immediate value
	// propagation (the authors' corrected results).
	InvisiSpecRevised Policy = "invisispec-revised"
	// DelayAll holds every speculative load until it is unsquashable
	// (the strictest delay-based upper bound).
	DelayAll Policy = "delay-all"
	// DelayOnMiss is the Conditional Speculation baseline: speculative
	// L1 hits proceed, speculative misses are delayed (Section 7.3.2).
	DelayOnMiss Policy = "delay-on-miss"
	// ValuePredict delays speculative misses but lets dependents run on
	// a last-value prediction (Sakalis et al., Section 7.3.2).
	ValuePredict Policy = "value-predict"
)

// Policies returns every available policy name.
func Policies() []Policy {
	return []Policy{NonSecure, CleanupSpec, InvisiSpecInitial, InvisiSpecRevised, DelayAll, DelayOnMiss, ValuePredict}
}

// Config configures a run.
type Config struct {
	// Policy selects the protection mechanism (default NonSecure).
	Policy Policy
	// Instructions is the commit budget of the measurement window
	// (default 300k).
	Instructions uint64
	// Warmup commits this many instructions before the measurement
	// window begins, standing in for the paper's 10-billion-instruction
	// fast-forward (default: Instructions, capped at 400k). Zero selects
	// that default; to run with no warmup, set NoWarmup.
	Warmup uint64
	// NoWarmup disables warmup entirely: it overrides Warmup, and
	// RunWorkload also skips the L2 and I-cache prewarm, so the run
	// starts from cold caches.
	NoWarmup bool
	// Seed perturbs the hierarchy's randomized structures.
	Seed uint64

	// L1RandomRepl / RandomizeL2 override the policy's default
	// randomization choices (used by the Table 1 ablation). Leave nil
	// for policy defaults.
	L1RandomRepl *bool
	RandomizeL2  *bool
	// DisableRestore turns CleanupSpec into the naive invalidation-only
	// design of Section 2.4.1 (ablations only).
	DisableRestore bool
	// ConstantTimeCleanup pads every cleanup stall (Section 4b).
	ConstantTimeCleanup uint64
	// L1PartitionWays, when non-zero, way-partitions the L1 (NoMo-style,
	// Section 3.6's SMT mitigation): each partition gets this many ways.
	L1PartitionWays int
	// L2RemapEvery, when non-zero, enables CEASER's gradual remap at one
	// relocated set per this many L2 accesses (requires a randomized L2).
	L2RemapEvery uint64

	// MaxCycles aborts runaway simulations (default 500M).
	MaxCycles uint64
	// WatchdogWindow is the core's forward-progress watchdog: a run that
	// commits nothing for this many cycles fails fast with a structured
	// *cpu.LivelockError naming the stalled structure, instead of
	// burning to MaxCycles (default 200k). It bounds simulated behavior,
	// so it participates in campaign cache keys.
	WatchdogWindow uint64
	// Faults, when non-nil, applies this run's deterministic fault
	// schedule (currently the simulation-step commit stall that seeds a
	// livelock for the watchdog). A chaos-test hook like Trace/Metrics:
	// nil in production, excluded from campaign cache keys.
	Faults *faultinject.Injector `json:"-"`
	// Trace, when non-nil, records the run's structured event trace
	// (squashes, loads, cleanups, commits) into the ring. Observability
	// hooks never affect simulation outcomes and are excluded from
	// campaign cache keys.
	Trace *TraceRing `json:"-"`
	// Metrics, when non-nil, is filled with the run's metric registry
	// (counters, gauges, histograms) and — when SampleEvery is set — the
	// interval time series. Hand in a zero-value &sim.Metrics{}; after
	// the run its Registry and Sampler fields are populated.
	Metrics *Metrics `json:"-"`
	// SampleEvery, when non-zero and Metrics is set, snapshots every
	// counter and gauge each SampleEvery cycles of the measurement
	// window (plus a final flush at the end of the run).
	SampleEvery uint64 `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = NonSecure
	}
	if c.Instructions == 0 {
		c.Instructions = 300_000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 500_000_000
	}
	if c.WatchdogWindow == 0 {
		c.WatchdogWindow = 200_000
	}
	if c.Warmup == 0 && !c.NoWarmup {
		c.Warmup = c.Instructions
		if c.Warmup > 400_000 {
			c.Warmup = 400_000
		}
	}
	if c.NoWarmup {
		c.Warmup = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Resolved returns the configuration with every default applied — the
// exact parameters RunWorkload will simulate for this config. Two configs
// with the same Resolved value (ignoring the observability hooks Trace,
// Metrics, and SampleEvery, which never change outcomes) produce identical
// results for the same workload; the campaign engine derives its
// content-addressed cache keys from it.
func (c Config) Resolved() Config { return c.withDefaults() }

// Result is the measurement record of one run.
type Result struct {
	Workload string
	Policy   Policy

	Cycles       uint64
	Instructions uint64
	IPC          float64

	// Table 3 characteristics.
	MispredictRate float64
	L1MissRate     float64

	// Table 5 / Figures 13-15.
	SquashPKI        float64 // squashes per kilo-instruction
	LoadsPerSquash   float64
	SquashedPctNI    float64
	SquashedPctL1H   float64
	SquashedPctL2H   float64
	SquashedPctL2M   float64
	InflightFrac     float64 // of squashed L1-misses, dropped in flight
	ExecutedFrac     float64 // of squashed L1-misses, cleaned after execute
	WaitPerSquash    float64 // cycles (Figure 14, inflight-wait part)
	CleanupPerSquash float64 // cycles (Figure 14, cleanup-ops part)

	Traffic memsys.Traffic
	CPU     cpu.Stats
	Mem     memsys.Stats

	// Metrics is the final counter snapshot of the run's metric registry
	// (nil unless Config.Metrics was set). The last interval sample's
	// counters equal this map exactly — samples are cumulative.
	Metrics map[string]uint64 `json:",omitempty"`
}

// buildPolicy instantiates the policy and its hierarchy configuration.
func buildPolicy(cfg Config) (cpu.Policy, memsys.Config, error) {
	hcfg := memsys.DefaultConfig(1)
	hcfg.Seed = cfg.Seed
	var pol cpu.Policy
	switch cfg.Policy {
	case NonSecure, "":
		pol = cpu.NonSecure{}
	case CleanupSpec:
		pol = core.NewWithConfig(core.Config{
			UseGetSSafe:         true,
			DisableRestore:      cfg.DisableRestore,
			ConstantTimeCleanup: arch.Cycle(cfg.ConstantTimeCleanup),
		})
		hcfg = core.HierarchyConfig(hcfg)
	case InvisiSpecInitial:
		pol = invisispec.New(invisispec.Initial)
	case InvisiSpecRevised:
		pol = invisispec.New(invisispec.Revised)
	case DelayAll:
		pol = policy.Delay{}
	case DelayOnMiss:
		pol = policy.DelayOnMiss{}
	case ValuePredict:
		pol = policy.NewValuePredict()
	default:
		return nil, hcfg, fmt.Errorf("sim: unknown policy %q", cfg.Policy)
	}
	if cfg.L1RandomRepl != nil {
		if *cfg.L1RandomRepl {
			hcfg.L1.Repl = cache.ReplRandom
		} else {
			hcfg.L1.Repl = cache.ReplLRU
		}
	}
	if cfg.RandomizeL2 != nil {
		hcfg.RandomizeL2 = *cfg.RandomizeL2
	}
	hcfg.L1.PartitionWays = cfg.L1PartitionWays
	hcfg.L2RemapEvery = cfg.L2RemapEvery
	return pol, hcfg, nil
}

// BuildPolicy instantiates the policy object and hierarchy configuration a
// config resolves to — the exact pair RunWorkload would simulate with.
// Harnesses that drive the core directly (the attack toolkit, the specfuzz
// differential oracle) use it so every policy spelling in the repo goes
// through one constructor.
func BuildPolicy(cfg Config) (cpu.Policy, memsys.Config, error) {
	pol, hcfg, err := buildPolicy(cfg.withDefaults())
	if err != nil {
		return nil, memsys.Config{}, err
	}
	return pol, hcfg, nil
}

// Workloads returns the names of the 19 SPEC-like workloads (Table 3
// order).
func Workloads() []string {
	var names []string
	for _, p := range workload.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// MTWorkloads returns the names of the 23 multithreaded profiles
// (Figure 9).
func MTWorkloads() []string {
	var names []string
	for _, p := range workload.MTProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// RunWorkload simulates the named workload under cfg. Unless cfg.NoWarmup
// is set, the workload's cold footprint is prewarmed into the L2 and its
// code into the I-cache before the warmup runs (the paper fast-forwards 10
// billion instructions before measuring, so its caches are warm).
func RunWorkload(name string, cfg Config) (Result, error) {
	prof, ok := workload.ProfileByName(name)
	if !ok {
		return Result{}, fmt.Errorf("sim: unknown workload %q (see sim.Workloads)", name)
	}
	prog := prof.Build()
	return runProgram(name, prog, cfg, func(h *memsys.Hierarchy) {
		if !cfg.NoWarmup {
			prewarm(h, prof, prog)
		}
	})
}

// prewarm fills the empty L2 with prof's cold footprint, as installing its
// lines one at a time in address order would, and the I-cache with prog's
// code.
func prewarm(h *memsys.Hierarchy, prof workload.Profile, prog *isa.Program) {
	base, size := prof.ColdRegion()
	h.PrewarmL2(arch.Addr(base).Line(), (size+arch.LineBytes-1)/arch.LineBytes)
	h.PrewarmICache(0, len(prog.Code))
}

// RunProgram simulates an arbitrary program (built with NewProgram) under
// cfg.
func RunProgram(name string, prog *Program, cfg Config) (Result, error) {
	return runProgram(name, prog, cfg, nil)
}

func runProgram(name string, prog *Program, cfg Config, prewarm func(*memsys.Hierarchy)) (Result, error) {
	cfg = cfg.withDefaults()
	pol, hcfg, err := buildPolicy(cfg)
	if err != nil {
		return Result{}, err
	}
	h := memsys.New(hcfg)
	if prewarm != nil {
		prewarm(h)
	}
	ccfg := cpu.DefaultConfig()
	ccfg.MaxCycles = arch.Cycle(cfg.MaxCycles)
	ccfg.WatchdogWindow = arch.Cycle(cfg.WatchdogWindow)
	m := cpu.New(ccfg, prog, h, pol)
	if cfg.Trace != nil {
		m.AttachTracer(cfg.Trace)
	}
	if at, ok := cfg.Faults.StallCycle(); ok {
		m.InjectCommitStall(arch.Cycle(at))
	}
	if cfg.Warmup > 0 {
		m.Run(cfg.Warmup)
		if lerr := m.LivelockErr(); lerr != nil {
			return Result{}, fmt.Errorf("sim: %s (warmup): %w", name, lerr)
		}
		if !m.Halted() {
			m.ResetStats()
			h.ResetStats()
		}
	}
	// Instrumentation attaches after the warmup reset so histograms and
	// samples cover exactly the measurement window. Counter bindings are
	// pointers into the live stat structs, so they need no reset handling.
	var reg *metrics.Registry
	var smp *metrics.Sampler
	if cfg.Metrics != nil {
		reg = metrics.NewRegistry()
		m.AttachMetrics(reg)
		h.AttachMetrics(reg)
		if pa, ok := pol.(interface{ AttachMetrics(*metrics.Registry) }); ok {
			pa.AttachMetrics(reg)
		}
		smp = metrics.NewSampler(reg, cfg.SampleEvery)
		if smp != nil {
			m.AttachSampler(smp)
		}
		cfg.Metrics.Registry = reg
		cfg.Metrics.Sampler = smp
	}
	st := m.Run(cfg.Instructions)
	if lerr := m.LivelockErr(); lerr != nil {
		return Result{}, fmt.Errorf("sim: %s: %w", name, lerr)
	}
	if !m.Halted() && st.Committed < cfg.Instructions {
		return Result{}, fmt.Errorf("sim: %s stalled at %d/%d instructions", name, st.Committed, cfg.Instructions)
	}
	smp.Flush(st.Cycles)
	return makeResult(name, cfg, st, h, reg), nil
}

func makeResult(name string, cfg Config, st cpu.Stats, h *memsys.Hierarchy, reg *metrics.Registry) Result {
	r := Result{
		Workload:     name,
		Policy:       cfg.Policy,
		Cycles:       st.Cycles,
		Instructions: st.Committed,
		IPC:          st.IPC(),
		Traffic:      h.Traffic,
		CPU:          st,
		Mem:          h.Stats,
	}
	if st.BranchesCommitted > 0 {
		r.MispredictRate = float64(st.MispredictsCommitted) / float64(st.BranchesCommitted)
	}
	r.L1MissRate = h.L1(0).Stats.MissRate()
	if st.Committed > 0 {
		r.SquashPKI = float64(st.Squashes) / float64(st.Committed) * 1000
	}
	if st.Squashes > 0 {
		r.LoadsPerSquash = float64(st.SquashedLoads) / float64(st.Squashes)
		r.WaitPerSquash = float64(st.InflightWaitCycles) / float64(st.Squashes)
		r.CleanupPerSquash = float64(st.CleanupOpCycles) / float64(st.Squashes)
	}
	if st.SquashedLoads > 0 {
		tot := float64(st.SquashedLoads)
		r.SquashedPctNI = float64(st.SquashedLoadNI) / tot * 100
		r.SquashedPctL1H = float64(st.SquashedLoadL1H) / tot * 100
		r.SquashedPctL2H = float64(st.SquashedLoadL2H) / tot * 100
		r.SquashedPctL2M = float64(st.SquashedLoadL2M) / tot * 100
	}
	if misses := st.SquashedInflight + st.SquashedExecuted; misses > 0 {
		r.InflightFrac = float64(st.SquashedInflight) / float64(misses)
		r.ExecutedFrac = float64(st.SquashedExecuted) / float64(misses)
	}
	if reg != nil {
		r.Metrics = reg.Snapshot().Counters
	}
	return r
}

// --- re-exports for examples and downstream users ---

// Program is a runnable program image (see NewProgram).
type Program = isa.Program

// Branch conditions for ProgramBuilder.Br.
const (
	CondEQ  = isa.CondEQ
	CondNE  = isa.CondNE
	CondLTU = isa.CondLTU
	CondGEU = isa.CondGEU
	CondLT  = isa.CondLT
	CondGE  = isa.CondGE
)

// ALU kinds for ProgramBuilder.Alu / AluI.
const (
	AluAdd = isa.AluAdd
	AluSub = isa.AluSub
	AluAnd = isa.AluAnd
	AluOr  = isa.AluOr
	AluXor = isa.AluXor
	AluShl = isa.AluShl
	AluShr = isa.AluShr
	AluMul = isa.AluMul
	AluMix = isa.AluMix
)

// ProgramBuilder assembles custom programs instruction by instruction.
type ProgramBuilder = isa.Builder

// NewProgram creates a program builder.
func NewProgram(name string) *ProgramBuilder { return isa.NewBuilder(name) }

// Assemble parses the text assembly dialect (see internal/isa.Assemble's
// doc comment for the grammar) into a runnable Program.
func Assemble(name, src string) (*Program, error) { return isa.Assemble(name, src) }

// SpectreResult is the Figure 11 record for one policy.
type SpectreResult = attack.SpectreResult

// RunSpectre runs the Spectre Variant-1 PoC under a policy and returns the
// per-index average probe latencies (Figure 11).
func RunSpectre(p Policy, iterations int) (SpectreResult, error) {
	cfg := Config{Policy: p}.withDefaults()
	pol, hcfg, err := buildPolicy(cfg)
	if err != nil {
		return SpectreResult{}, err
	}
	scfg := attack.DefaultSpectreConfig()
	if iterations > 0 {
		scfg.Iterations = iterations
	}
	return attack.RunSpectreV1(pol, hcfg, scfg), nil
}

// MTResult is the Figure 9 record for one multithreaded workload.
type MTResult struct {
	Workload      string
	UnsafeFrac    float64 // loads to remote-M/E lines
	SafeDRAMFrac  float64
	SafeCacheFrac float64
}

// RunMTWorkload runs the 4-core characterization for one profile.
func RunMTWorkload(name string, steps int) (MTResult, error) {
	for _, p := range workload.MTProfiles() {
		if p.Name != name {
			continue
		}
		if steps <= 0 {
			steps = 20_000
		}
		st := multicore.New(p, 4).Run(steps)
		return MTResult{
			Workload:      name,
			UnsafeFrac:    st.UnsafeFrac(),
			SafeDRAMFrac:  st.SafeDRAMFrac(),
			SafeCacheFrac: st.SafeCacheFrac(),
		}, nil
	}
	return MTResult{}, fmt.Errorf("sim: unknown MT workload %q (see sim.MTWorkloads)", name)
}

// Metrics receives a run's metric registry and interval time series (see
// Config.Metrics). The underlying types live in internal/metrics; the
// exporters (WriteJSONL, WriteCSV, ExportChromeTrace) and histogram
// renderers are reachable through the Registry and Sampler fields.
type Metrics = metrics.Collector

// MetricSample is one interval snapshot of every counter and gauge.
type MetricSample = metrics.Sample

// TraceRing records structured execution events (see Config.Trace).
type TraceRing = trace.Ring

// TraceEvent is one recorded event.
type TraceEvent = trace.Event

// NewTraceRing creates a ring retaining the last capacity events.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// LivelockError is the forward-progress watchdog's structured diagnosis
// (see Config.WatchdogWindow); unwrap run errors with errors.As.
type LivelockError = cpu.LivelockError

// StorageOverheadBytes returns CleanupSpec's SEFE storage per core for the
// paper's configuration (Section 6.6).
func StorageOverheadBytes() int {
	return core.StorageBitsPerCore(32, 64, 64) / 8
}
