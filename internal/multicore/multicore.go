// Package multicore implements the 4-core functional-with-latency simulator
// used for the paper's multithreaded characterization (Figure 9: the
// breakdown of loads by the coherence state of their line — safe cache
// loads, safe DRAM loads, and "unsafe" loads that hit a remote M/E line and
// would be delayed by CleanupSpec's GetS-Safe) and for directed coherence
// experiments (Table 2).
//
// Each core executes a synthetic access stream derived from an
// workload.MTProfile: private data, read-shared data, streaming (DRAM)
// data, and migratory lock-protected data whose ownership rotates between
// cores — the pattern that produces remote-M/E loads in real multithreaded
// programs. The paper measured this with Sniper because load *counts*, not
// core timing, determine the figure; this engine makes the same trade.
package multicore

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Region bases for the synthetic address space.
const (
	privateBase   = arch.Addr(0x1000_0000)
	privateStride = arch.Addr(0x0100_0000) // per core
	privateBytes  = 64 << 10
	sharedBase    = arch.Addr(0x8000_0000)
	sharedBytes   = 256 << 10
	migrBase      = arch.Addr(0x9000_0000)
	migrRegions   = 16
	migrBytes     = 4 * arch.LineBytes // lines per lock region
	streamBase    = arch.Addr(0xA000_0000)
	streamBytes   = 64 << 20
)

// LoadClass classifies one load the way Figure 9 does.
type LoadClass int

// Load classes.
const (
	// SafeCache: local hit, remote-S, or shared-L2 hit.
	SafeCache LoadClass = iota
	// SafeDRAM: the data comes from memory.
	SafeDRAM
	// UnsafeRemoteEM: the line is in a remote M/E cache; a speculative
	// GetS-Safe would fail and the load would be delayed (Section 3.5).
	UnsafeRemoteEM
)

func (c LoadClass) String() string {
	switch c {
	case SafeCache:
		return "safe-cache"
	case SafeDRAM:
		return "safe-dram"
	case UnsafeRemoteEM:
		return "unsafe-remote-em"
	}
	return fmt.Sprintf("LoadClass(%d)", int(c))
}

// Stats accumulates the Figure 9 breakdown.
type Stats struct {
	Loads     uint64
	Safe      uint64
	SafeDRAM  uint64
	Unsafe    uint64
	Stores    uint64
	Downgrade uint64 // remote M/E -> S transitions performed
}

// UnsafeFrac returns the unsafe share of loads.
func (s Stats) UnsafeFrac() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.Unsafe) / float64(s.Loads)
}

// SafeDRAMFrac returns the DRAM share of loads.
func (s Stats) SafeDRAMFrac() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.SafeDRAM) / float64(s.Loads)
}

// SafeCacheFrac returns the safe-cache share of loads.
func (s Stats) SafeCacheFrac() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.Safe) / float64(s.Loads)
}

// Sim is the multicore characterization engine.
type Sim struct {
	cores int
	dir   *coherence.Directory
	l1    []*cache.Cache
	l2    *cache.Cache
	rng   []*xrand.Rand
	prof  workload.MTProfile
	step  uint64

	Stats Stats
}

// New builds a sim for profile p with the given core count (the paper's
// characterization uses 4).
func New(p workload.MTProfile, cores int) *Sim {
	s := &Sim{
		cores: cores,
		dir:   coherence.NewDirectory(cores),
		l2: cache.New(cache.Config{
			Name: "L2", SizeBytes: cores * 2 << 20, Ways: 16,
			Repl: cache.ReplLRU, Seed: p.Seed,
		}),
		prof: p,
	}
	for c := 0; c < cores; c++ {
		s.l1 = append(s.l1, cache.New(cache.Config{
			Name: fmt.Sprintf("L1D%d", c), SizeBytes: 64 << 10, Ways: 8,
			Repl: cache.ReplLRU, Seed: p.Seed + uint64(c),
		}))
		s.rng = append(s.rng, xrand.New(p.Seed*977+uint64(c)))
	}
	return s
}

// Directory exposes the MESI directory (tests).
func (s *Sim) Directory() *coherence.Directory { return s.dir }

// pick draws the next line address for core, returning whether the access
// should be a store (migratory handoffs write).
func (s *Sim) pick(core int) (arch.LineAddr, bool) {
	r := s.rng[core]
	x := r.Float64()
	switch {
	case x < s.prof.MigratoryFrac:
		// Migratory region: the natural reader of region g in this
		// phase rotates across cores, so the line is usually M in the
		// previous phase-owner's cache. Handoff = read then write.
		g := r.Intn(migrRegions)
		phase := (s.step/64 + uint64(g)) % uint64(s.cores)
		if int(phase) != core {
			// Not this core's phase: touch own private data instead.
			return s.privateLine(core, r), false
		}
		off := arch.Addr(r.Intn(int(migrBytes/arch.LineBytes))) * arch.LineBytes
		return (migrBase + arch.Addr(g)*migrBytes + off).Line(), true
	case x < s.prof.MigratoryFrac+s.prof.SharedReadFrac:
		off := arch.Addr(r.Intn(sharedBytes/arch.LineBytes)) * arch.LineBytes
		return (sharedBase + off).Line(), false
	case x < s.prof.MigratoryFrac+s.prof.SharedReadFrac+s.prof.DRAMFrac:
		off := arch.Addr(r.Intn(streamBytes/arch.LineBytes)) * arch.LineBytes
		return (streamBase + off).Line(), false
	default:
		return s.privateLine(core, r), r.Bool(0.2)
	}
}

func (s *Sim) privateLine(core int, r *xrand.Rand) arch.LineAddr {
	off := arch.Addr(r.Intn(privateBytes/arch.LineBytes)) * arch.LineBytes
	return (privateBase + privateStride*arch.Addr(core) + off).Line()
}

// Step performs one access per core.
func (s *Sim) Step() {
	for c := 0; c < s.cores; c++ {
		line, isStore := s.pick(c)
		if isStore {
			s.store(c, line)
		}
		s.load(c, line)
	}
	s.step++
}

// Run executes steps rounds and returns the stats.
func (s *Sim) Run(steps int) Stats {
	for i := 0; i < steps; i++ {
		s.Step()
	}
	return s.Stats
}

// Classify reports how a load by core to line would be classified, without
// performing it. load makes the same decision in one pass over the caches;
// Classify stays as its reference.
func (s *Sim) Classify(core int, line arch.LineAddr) LoadClass {
	if s.dir.RemoteOwner(core, line) >= 0 {
		return UnsafeRemoteEM
	}
	if _, hit := s.l1[core].Probe(line); hit {
		return SafeCache
	}
	if _, hit := s.l2.Probe(line); hit {
		return SafeCache
	}
	return SafeDRAM
}

// load performs and classifies a load, returning what Classify would have
// said just before it. It looks the line up once per level: the L1 lookup
// is the demand access, and on a miss one L2 probe both classifies the load
// and decides the L2 fill. The probe's answer still holds at the fill,
// because GetS and applyRemote touch only the L1s and the directory.
func (s *Sim) load(core int, line arch.LineAddr) LoadClass {
	remote := s.dir.RemoteOwner(core, line) >= 0
	_, l1hit := s.l1[core].Lookup(line)
	l2hit := true
	if !l1hit {
		_, l2hit = s.l2.Probe(line)
	}
	s.Stats.Loads++
	class := SafeCache
	switch {
	case remote:
		class = UnsafeRemoteEM
		s.Stats.Unsafe++
		s.Stats.Downgrade++
	case !l2hit:
		class = SafeDRAM
		s.Stats.SafeDRAM++
	default:
		s.Stats.Safe++
	}
	if l1hit {
		return class
	}
	grant := s.dir.GetS(core, line)
	s.applyRemote(line, grant)
	if !l2hit {
		s.fillL2(line)
	}
	s.installL1(core, line, grant.State)
	return class
}

// store performs a store (RFO).
func (s *Sim) store(core int, line arch.LineAddr) {
	s.Stats.Stores++
	grant := s.dir.GetX(core, line)
	s.applyRemote(line, grant)
	s.installL2(line)
	if _, hit := s.l1[core].Probe(line); !hit {
		s.installL1(core, line, arch.Modified)
	}
	s.l1[core].MarkDirty(line)
	s.l2.MarkDirty(line)
}

func (s *Sim) applyRemote(line arch.LineAddr, g coherence.Grant) {
	for m := g.Downgrades; m != 0; m &= m - 1 {
		s.l1[bits.TrailingZeros64(m)].SetState(line, arch.Shared)
	}
	for m := g.Invalidates; m != 0; m &= m - 1 {
		s.l1[bits.TrailingZeros64(m)].Invalidate(line)
	}
}

func (s *Sim) installL1(core int, line arch.LineAddr, st arch.CohState) {
	evicted, _ := s.l1[core].Install(line, st, core, arch.Cycle(s.step))
	if evicted.Valid() {
		s.dir.Evict(core, evicted.Tag, evicted.Dirty)
	}
}

// installL2 fills line into the L2 unless it is already there.
func (s *Sim) installL2(line arch.LineAddr) {
	if _, hit := s.l2.Probe(line); !hit {
		s.fillL2(line)
	}
}

// fillL2 installs line, which the L2 does not hold, back-invalidating the
// victim from every L1 (the L2 is inclusive).
func (s *Sim) fillL2(line arch.LineAddr) {
	evicted, _ := s.l2.Install(line, arch.Shared, 0, arch.Cycle(s.step))
	if evicted.Valid() {
		for c := 0; c < s.cores; c++ {
			if old, ok := s.l1[c].Invalidate(evicted.Tag); ok {
				s.dir.Evict(c, evicted.Tag, old.Dirty)
			}
		}
	}
}
