// Package cache implements the set-associative caches used for the L1 data
// cache and the shared L2, including the replacement policies the paper
// depends on (LRU for the non-secure baseline, random replacement for
// CleanupSpec's L1, way-partitioning for the SMT/NoMo discussion) and the
// MSHR with the paper's Side-Effect Entry (SEFE) metadata (Figure 7).
//
// The cache stores line addresses and coherence state only; data values live
// in the functional memory model (internal/isa.Memory). That split mirrors
// how timing simulators like gem5 classic separate tag state from data.
package cache

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/xrand"
)

// Indexer maps a line address to a set index. The default is modulo
// indexing; internal/ceaser provides the randomized (encrypted-address)
// indexer used for the L2 in CleanupSpec configurations.
type Indexer interface {
	// Name identifies the indexing scheme in stats output.
	Name() string
	// SetIndex returns the set for line l; it must be < Sets().
	SetIndex(l arch.LineAddr) int
	// Sets returns the number of sets the indexer was built for.
	Sets() int
	// ExtraLatency is added to every access (the paper charges 2 cycles
	// for CEASER's address encryption).
	ExtraLatency() arch.Cycle
}

// ModIndexer is conventional modulo set indexing with zero extra latency.
type ModIndexer struct{ NumSets int }

func (m ModIndexer) Name() string                 { return "mod" }
func (m ModIndexer) SetIndex(l arch.LineAddr) int { return int(uint64(l) % uint64(m.NumSets)) }
func (m ModIndexer) Sets() int                    { return m.NumSets }
func (m ModIndexer) ExtraLatency() arch.Cycle     { return 0 }

// ReplKind selects the replacement policy.
type ReplKind int

const (
	// ReplLRU is least-recently-used replacement (baseline L1/L2).
	ReplLRU ReplKind = iota
	// ReplRandom is random replacement (CleanupSpec's L1, Section 3.2).
	ReplRandom
)

func (r ReplKind) String() string {
	switch r {
	case ReplLRU:
		return "lru"
	case ReplRandom:
		return "random"
	}
	return fmt.Sprintf("ReplKind(%d)", int(r))
}

// Line is one cache line's tag-array state.
type Line struct {
	Tag   arch.LineAddr
	State arch.CohState
	Dirty bool

	// SpecInstalled marks a line installed by a still-speculative load;
	// CleanupSpec clears it when the load retires or cleans it up. It is
	// the tag-side view of an active SEFE (Section 3.6 window tracking).
	SpecInstalled bool
	// InstalledBy is the core that installed the line (for cross-core
	// window protection).
	InstalledBy int
	// InstalledAt is the cycle of the install.
	InstalledAt arch.Cycle
}

// Valid reports whether the line holds a valid tag.
func (ln Line) Valid() bool { return ln.State.Valid() }

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	Repl      ReplKind
	// Indexer is optional; nil means modulo indexing over the computed
	// set count.
	Indexer Indexer
	// PartitionWays, if > 0, confines each partition (SMT thread) to a
	// contiguous group of PartitionWays ways (NoMo-style, Section 3.6).
	PartitionWays int
	// Seed keys the stateless random-replacement victim hash.
	Seed uint64
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Installs   uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
	Invals     uint64
	Restores   uint64
}

// MissRate returns misses/accesses, or 0 for an idle cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache tag array.
type Cache struct {
	cfg   Config
	sets  int
	ways  int
	lines []Line   // sets*ways, flat
	stamp []uint64 // LRU stamps, parallel to lines
	tick  uint64
	idx   Indexer

	Stats Stats
}

// New builds a cache from cfg. It panics on a malformed geometry because a
// bad configuration is a programming error, not a runtime condition.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		//simlint:allow errdiscipline -- construction-time geometry validation; a bad config is a programmer error caught before any simulation runs
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	lines := cfg.SizeBytes / arch.LineBytes
	sets := lines / cfg.Ways
	if sets <= 0 || lines%cfg.Ways != 0 {
		//simlint:allow errdiscipline -- construction-time geometry validation; a bad config is a programmer error caught before any simulation runs
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d ways", cfg.Name, cfg.SizeBytes, cfg.Ways))
	}
	idx := cfg.Indexer
	if idx == nil {
		idx = ModIndexer{NumSets: sets}
	}
	if idx.Sets() != sets {
		//simlint:allow errdiscipline -- construction-time geometry validation; a bad config is a programmer error caught before any simulation runs
		panic(fmt.Sprintf("cache %s: indexer built for %d sets, cache has %d", cfg.Name, idx.Sets(), sets))
	}
	if cfg.PartitionWays > 0 && cfg.Ways%cfg.PartitionWays != 0 {
		//simlint:allow errdiscipline -- construction-time geometry validation; a bad config is a programmer error caught before any simulation runs
		panic(fmt.Sprintf("cache %s: %d ways not divisible by partition %d", cfg.Name, cfg.Ways, cfg.PartitionWays))
	}
	return &Cache{
		cfg:   cfg,
		sets:  sets,
		ways:  cfg.Ways,
		lines: make([]Line, sets*cfg.Ways),
		stamp: make([]uint64, sets*cfg.Ways),
		idx:   idx,
	}
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Indexer returns the active set indexer.
func (c *Cache) Indexer() Indexer { return c.idx }

// SetFor returns the set index line l maps to.
func (c *Cache) SetFor(l arch.LineAddr) int { return c.idx.SetIndex(l) }

// line returns a pointer to the line at (set, way).
func (c *Cache) line(set, way int) *Line { return &c.lines[set*c.ways+way] }

// LineAt exposes the line at (set, way) for inspection by policies/tests.
func (c *Cache) LineAt(set, way int) Line { return *c.line(set, way) }

// Probe looks up l without changing any state (no replacement update, no
// stats). It returns the way and whether the line is present.
func (c *Cache) Probe(l arch.LineAddr) (way int, ok bool) {
	set := c.idx.SetIndex(l)
	for w := 0; w < c.ways; w++ {
		ln := c.line(set, w)
		if ln.Valid() && ln.Tag == l {
			return w, true
		}
	}
	return -1, false
}

// Lookup performs a demand access: it counts the access, and on a hit
// updates replacement state (for LRU) and returns the way. The paper's
// random-replacement L1 deliberately has no hit-side replacement update,
// which is what makes transient hits leak nothing (Section 3.2).
func (c *Cache) Lookup(l arch.LineAddr) (way int, hit bool) {
	c.Stats.Accesses++
	way, hit = c.Probe(l)
	if hit {
		c.Stats.Hits++
		c.touch(c.idx.SetIndex(l), way)
	} else {
		c.Stats.Misses++
	}
	return way, hit
}

// touch records a use for replacement. Random replacement keeps no state.
func (c *Cache) touch(set, way int) {
	if c.cfg.Repl == ReplLRU {
		c.tick++
		c.stamp[set*c.ways+way] = c.tick
	}
}

// wayRange returns the [lo, hi) ways partition part may use.
func (c *Cache) wayRange(part int) (lo, hi int) {
	if c.cfg.PartitionWays <= 0 {
		return 0, c.ways
	}
	nparts := c.ways / c.cfg.PartitionWays
	p := part % nparts
	return p * c.cfg.PartitionWays, (p + 1) * c.cfg.PartitionWays
}

// Victim selects a victim way in the set for line l on behalf of partition
// part, preferring an invalid way. It does not evict.
func (c *Cache) Victim(l arch.LineAddr, part int) (set, way int) {
	set = c.idx.SetIndex(l)
	lo, hi := c.wayRange(part)
	for w := lo; w < hi; w++ {
		if !c.line(set, w).Valid() {
			return set, w
		}
	}
	switch c.cfg.Repl {
	case ReplRandom:
		// Stateless pseudo-random selection: the victim is a pure hash
		// of (seed, set, incoming line). An earlier version advanced a
		// per-cache PRNG stream on each full-set eviction, but the
		// stream position itself was then microarchitectural state a
		// squash could not undo: a transient install into a full set
		// consumed a draw where an install into a set with a free way
		// did not, so a secret-dependent transient access desynchronized
		// every later victim choice — a replacement-state residue the
		// specfuzz differential oracle flags under CleanupSpec. A pure
		// function of the access leaves no state to leak, which is the
		// paper's actual claim for random replacement (Section 3.2).
		h := xrand.Hash64(c.cfg.Seed ^ 0xCAC4E ^ uint64(l)<<20 ^ uint64(set))
		return set, lo + int(h%uint64(hi-lo))
	default: // LRU
		best, bestStamp := lo, c.stamp[set*c.ways+lo]
		for w := lo + 1; w < hi; w++ {
			if s := c.stamp[set*c.ways+w]; s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return set, best
	}
}

// Install places line l into the cache with the given coherence state,
// evicting a victim chosen by the replacement policy. It returns the evicted
// line (Valid()==false if an empty way was used) and the way used.
func (c *Cache) Install(l arch.LineAddr, st arch.CohState, part int, now arch.Cycle) (evicted Line, way int) {
	set, way := c.Victim(l, part)
	return c.InstallAt(set, way, l, st, now), way
}

// InstallAt places line l into (set, way) directly, returning the previous
// occupant. CleanupSpec's restore path uses it to put an evicted victim back
// into the exact way it was evicted from (Section 3.4).
func (c *Cache) InstallAt(set, way int, l arch.LineAddr, st arch.CohState, now arch.Cycle) (evicted Line) {
	if got := c.idx.SetIndex(l); got != set {
		//simlint:allow errdiscipline,hotalloc -- restore-path invariant: a misindexed install would silently corrupt simulated cache state; the Sprintf runs only on that terminal panic path
		panic(fmt.Sprintf("cache %s: install of %v into set %d, but it indexes to %d", c.cfg.Name, l, set, got))
	}
	ln := c.line(set, way)
	evicted = *ln
	if evicted.Valid() {
		c.Stats.Evictions++
		if evicted.Dirty {
			c.Stats.Writebacks++
		}
	}
	*ln = Line{Tag: l, State: st, InstalledAt: now}
	c.Stats.Installs++
	c.touch(set, way)
	return evicted
}

// Prewarm installs the n consecutive lines first, first+1, ..., first+n-1
// with state st into an empty cache, leaving exactly the lines, LRU stamps
// and Stats that Install(l, st, 0, 0) on each line in that order leaves.
// In a set that starts empty, LRU puts the k-th incoming line in way k
// until the set is full and from then on evicts way k mod Ways, so a line
// costs one SetIndex and no probe or victim scan. It panics on a
// non-empty, partitioned or non-LRU cache, where that closed form fails.
func (c *Cache) Prewarm(first arch.LineAddr, n int, st arch.CohState) {
	if c.cfg.Repl != ReplLRU || c.cfg.PartitionWays > 0 {
		//simlint:allow errdiscipline -- caller contract: the closed-form fill holds only for unpartitioned LRU, and every prewarmed cache is built that way
		panic(fmt.Sprintf("cache %s: Prewarm needs an unpartitioned LRU cache", c.cfg.Name))
	}
	for i := range c.lines {
		if c.lines[i].Valid() {
			//simlint:allow errdiscipline -- caller contract: the closed-form fill assumes every set starts empty, and prewarm runs only on a freshly built hierarchy
			panic(fmt.Sprintf("cache %s: Prewarm into a non-empty cache", c.cfg.Name))
		}
	}
	filled := make([]int32, c.sets) // lines installed into each set so far
	for i := 0; i < n; i++ {
		l := first + arch.LineAddr(i)
		set := c.idx.SetIndex(l)
		k := int(filled[set])
		filled[set]++
		if k >= c.ways {
			c.Stats.Evictions++
		}
		j := set*c.ways + k%c.ways
		c.lines[j] = Line{Tag: l, State: st}
		c.Stats.Installs++
		c.tick++
		c.stamp[j] = c.tick
	}
}

// Invalidate removes line l if present, returning its prior contents.
func (c *Cache) Invalidate(l arch.LineAddr) (old Line, ok bool) {
	way, ok := c.Probe(l)
	if !ok {
		return Line{}, false
	}
	set := c.idx.SetIndex(l)
	ln := c.line(set, way)
	old = *ln
	*ln = Line{}
	c.Stats.Invals++
	return old, true
}

// State returns the coherence state of l (Invalid if absent).
func (c *Cache) State(l arch.LineAddr) arch.CohState {
	way, ok := c.Probe(l)
	if !ok {
		return arch.Invalid
	}
	return c.line(c.idx.SetIndex(l), way).State
}

// SetState updates the coherence state of l if present and reports whether
// it was present.
func (c *Cache) SetState(l arch.LineAddr, st arch.CohState) bool {
	way, ok := c.Probe(l)
	if !ok {
		return false
	}
	c.line(c.idx.SetIndex(l), way).State = st
	return true
}

// MarkDirty sets the dirty bit of l if present.
func (c *Cache) MarkDirty(l arch.LineAddr) bool {
	way, ok := c.Probe(l)
	if !ok {
		return false
	}
	ln := c.line(c.idx.SetIndex(l), way)
	ln.Dirty = true
	ln.State = arch.Modified
	return true
}

// MarkSpec flags l as speculatively installed by core (window tracking).
func (c *Cache) MarkSpec(l arch.LineAddr, core int) bool {
	way, ok := c.Probe(l)
	if !ok {
		return false
	}
	ln := c.line(c.idx.SetIndex(l), way)
	ln.SpecInstalled = true
	ln.InstalledBy = core
	return true
}

// ClearSpec clears the speculative-install flag of l.
func (c *Cache) ClearSpec(l arch.LineAddr) {
	if way, ok := c.Probe(l); ok {
		c.line(c.idx.SetIndex(l), way).SpecInstalled = false
	}
}

// SpecInfo returns the speculative-install flag and installer of l.
func (c *Cache) SpecInfo(l arch.LineAddr) (spec bool, by int) {
	way, ok := c.Probe(l)
	if !ok {
		return false, -1
	}
	ln := c.line(c.idx.SetIndex(l), way)
	return ln.SpecInstalled, ln.InstalledBy
}

// FlushAll invalidates every line (used between experiment phases).
func (c *Cache) FlushAll() {
	for i := range c.lines {
		c.lines[i] = Line{}
	}
}

// ResetStats zeroes the counters without touching contents.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// SnapshotTags returns the set of valid line addresses currently cached.
// Tests use it to assert the paper's core invariant: after a cleanup, the
// cache contents are as if the squashed loads never ran.
func (c *Cache) SnapshotTags() map[arch.LineAddr]bool {
	m := make(map[arch.LineAddr]bool)
	for i := range c.lines {
		if c.lines[i].Valid() {
			m[c.lines[i].Tag] = true
		}
	}
	return m
}

// SnapshotLines returns a copy of every valid line, sorted by tag — the
// deterministic per-level half of the attacker-observer cache-state probe
// (see memsys.Hierarchy.Snapshot). Sorting by tag rather than by (set,
// way) makes the snapshot insensitive to way placement, which an attacker
// cannot observe directly; what a line's presence, coherence state, and
// dirtiness reveal, the differential oracle in internal/specfuzz compares.
func (c *Cache) SnapshotLines() []Line {
	var out []Line
	for i := range c.lines {
		if c.lines[i].Valid() {
			out = append(out, c.lines[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// OccupiedWays returns how many valid ways set holds.
func (c *Cache) OccupiedWays(set int) int {
	n := 0
	for w := 0; w < c.ways; w++ {
		if c.line(set, w).Valid() {
			n++
		}
	}
	return n
}
