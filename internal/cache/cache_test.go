package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/ceaser"
	"repro/internal/xrand"
)

func small(repl ReplKind) *Cache {
	// 4 sets x 2 ways, 64B lines => 512B.
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2, Repl: repl, Seed: 1})
}

func TestGeometry(t *testing.T) {
	c := small(ReplLRU)
	if c.Sets() != 4 || c.Ways() != 2 {
		t.Fatalf("got %dx%d, want 4x2", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 0, Ways: 2})
}

func TestIndexerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 512, Ways: 2, Indexer: ModIndexer{NumSets: 8}})
}

func TestInstallProbeInvalidate(t *testing.T) {
	c := small(ReplLRU)
	l := arch.LineAddr(0x40)
	if _, ok := c.Probe(l); ok {
		t.Fatal("empty cache must miss")
	}
	ev, _ := c.Install(l, arch.Exclusive, 0, 10)
	if ev.Valid() {
		t.Fatal("install into empty set must not evict")
	}
	if way, ok := c.Probe(l); !ok || way < 0 {
		t.Fatal("line must be present after install")
	}
	if st := c.State(l); st != arch.Exclusive {
		t.Fatalf("state %v, want E", st)
	}
	old, ok := c.Invalidate(l)
	if !ok || old.Tag != l {
		t.Fatal("invalidate must return the line")
	}
	if _, ok := c.Probe(l); ok {
		t.Fatal("line must be gone")
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := small(ReplLRU)
	// Three lines in the same set (set 0 of 4): line addresses = 0, 4, 8.
	a, b, d := arch.LineAddr(0), arch.LineAddr(4), arch.LineAddr(8)
	c.Install(a, arch.Exclusive, 0, 1)
	c.Install(b, arch.Exclusive, 0, 2)
	// Touch a so b becomes LRU.
	c.Lookup(a)
	ev, _ := c.Install(d, arch.Exclusive, 0, 3)
	if !ev.Valid() || ev.Tag != b {
		t.Fatalf("evicted %v, want %v", ev.Tag, b)
	}
}

func TestRandomReplacementHasNoHitState(t *testing.T) {
	// Under random replacement, hitting a line must not change which
	// victim is selected (no replacement-state channel, Section 3.2).
	c1 := small(ReplRandom)
	c2 := small(ReplRandom)
	a, b := arch.LineAddr(0), arch.LineAddr(4)
	for _, c := range []*Cache{c1, c2} {
		c.Install(a, arch.Exclusive, 0, 1)
		c.Install(b, arch.Exclusive, 0, 2)
	}
	// Different hit patterns.
	c1.Lookup(a)
	c1.Lookup(a)
	c2.Lookup(b)
	// Same RNG seed => same victim regardless of hits.
	_, w1 := c1.Victim(arch.LineAddr(8), 0)
	_, w2 := c2.Victim(arch.LineAddr(8), 0)
	if w1 != w2 {
		t.Fatalf("random victim depends on hit history: %d vs %d", w1, w2)
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	c := small(ReplRandom)
	c.Install(arch.LineAddr(0), arch.Exclusive, 0, 1)
	set, way := c.Victim(arch.LineAddr(4), 0)
	if set != 0 {
		t.Fatalf("set %d, want 0", set)
	}
	if c.LineAt(set, way).Valid() {
		t.Fatal("victim must be the invalid way")
	}
}

func TestInstallAtRestoresExactWay(t *testing.T) {
	c := small(ReplLRU)
	victim := arch.LineAddr(0)
	c.Install(victim, arch.Exclusive, 0, 1)
	set, way := 0, 0
	// Overwrite way 0 with a transient line, then restore.
	tr := arch.LineAddr(4)
	ev := c.InstallAt(set, way, tr, arch.Exclusive, 2)
	if ev.Tag != victim {
		t.Fatalf("evicted %v, want %v", ev.Tag, victim)
	}
	c.Invalidate(tr)
	c.InstallAt(set, way, victim, ev.State, 3)
	if w, ok := c.Probe(victim); !ok || w != way {
		t.Fatalf("restore did not reuse way: got (%d,%v)", w, ok)
	}
}

func TestInstallAtWrongSetPanics(t *testing.T) {
	c := small(ReplLRU)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.InstallAt(1, 0, arch.LineAddr(0), arch.Exclusive, 1) // line 0 indexes to set 0
}

func TestDirtyWritebackCounting(t *testing.T) {
	c := small(ReplLRU)
	a := arch.LineAddr(0)
	c.Install(a, arch.Exclusive, 0, 1)
	if !c.MarkDirty(a) {
		t.Fatal("MarkDirty on present line must succeed")
	}
	if c.State(a) != arch.Modified {
		t.Fatal("dirty line must be M")
	}
	c.Install(arch.LineAddr(4), arch.Exclusive, 0, 2)
	ev, _ := c.Install(arch.LineAddr(8), arch.Exclusive, 0, 3)
	if !ev.Dirty {
		t.Fatal("evicted line should be the dirty one (LRU)")
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestWayPartitioning(t *testing.T) {
	// 4 ways, partition 2: thread 0 uses ways 0-1, thread 1 uses 2-3.
	c := New(Config{Name: "nomo", SizeBytes: 1024, Ways: 4, Repl: ReplLRU, PartitionWays: 2, Seed: 1})
	set0 := func(i int) arch.LineAddr { return arch.LineAddr(i * c.Sets()) }
	// Thread 0 fills its two ways.
	c.Install(set0(1), arch.Exclusive, 0, 1)
	c.Install(set0(2), arch.Exclusive, 0, 2)
	// Thread 1 installs must not evict thread 0's lines.
	c.Install(set0(3), arch.Exclusive, 1, 3)
	ev, way := c.Install(set0(4), arch.Exclusive, 1, 4)
	if ev.Valid() {
		t.Fatalf("thread 1 evicted %v from thread 0's partition", ev.Tag)
	}
	if way < 2 {
		t.Fatalf("thread 1 used way %d in thread 0's partition", way)
	}
	// Now thread 1's partition is full: next install evicts only its own.
	ev, _ = c.Install(set0(5), arch.Exclusive, 1, 5)
	if !ev.Valid() || (ev.Tag != set0(3) && ev.Tag != set0(4)) {
		t.Fatalf("thread 1 evicted %v, want one of its own lines", ev.Tag)
	}
	if _, ok := c.Probe(set0(1)); !ok {
		t.Fatal("thread 0 line 1 lost")
	}
	if _, ok := c.Probe(set0(2)); !ok {
		t.Fatal("thread 0 line 2 lost")
	}
}

func TestSpecMarking(t *testing.T) {
	c := small(ReplLRU)
	a := arch.LineAddr(0)
	c.Install(a, arch.Exclusive, 0, 1)
	if spec, _ := c.SpecInfo(a); spec {
		t.Fatal("fresh install must not be spec-marked")
	}
	c.MarkSpec(a, 3)
	if spec, by := c.SpecInfo(a); !spec || by != 3 {
		t.Fatalf("SpecInfo = (%v,%d), want (true,3)", spec, by)
	}
	c.ClearSpec(a)
	if spec, _ := c.SpecInfo(a); spec {
		t.Fatal("ClearSpec failed")
	}
	if spec, by := c.SpecInfo(arch.LineAddr(999)); spec || by != -1 {
		t.Fatal("SpecInfo on absent line must be (false,-1)")
	}
}

func TestStatsAndMissRate(t *testing.T) {
	c := small(ReplLRU)
	c.Install(arch.LineAddr(0), arch.Exclusive, 0, 1)
	c.Lookup(arch.LineAddr(0)) // hit
	c.Lookup(arch.LineAddr(4)) // miss
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 || c.Stats.Accesses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
	if mr := c.Stats.MissRate(); mr != 0.5 {
		t.Fatalf("miss rate %v, want 0.5", mr)
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty miss rate must be 0")
	}
	c.ResetStats()
	if c.Stats.Accesses != 0 {
		t.Fatal("ResetStats failed")
	}
	if _, ok := c.Probe(arch.LineAddr(0)); !ok {
		t.Fatal("ResetStats must not flush contents")
	}
}

func TestSnapshotTags(t *testing.T) {
	c := small(ReplLRU)
	c.Install(arch.LineAddr(0), arch.Exclusive, 0, 1)
	c.Install(arch.LineAddr(5), arch.Exclusive, 0, 1)
	snap := c.SnapshotTags()
	if len(snap) != 2 || !snap[0] || !snap[5] {
		t.Fatalf("snapshot %v", snap)
	}
}

// Property: a line just installed is always found by Probe, in the set its
// indexer assigns, until something evicts or invalidates it.
func TestInstallThenProbeProperty(t *testing.T) {
	c := New(Config{Name: "p", SizeBytes: 64 * 1024, Ways: 8, Repl: ReplLRU, Seed: 2})
	f := func(raw uint32) bool {
		l := arch.LineAddr(raw)
		c.Install(l, arch.Exclusive, 0, 0)
		way, ok := c.Probe(l)
		return ok && c.LineAt(c.SetFor(l), way).Tag == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy of a set never exceeds the number of ways.
func TestOccupancyBound(t *testing.T) {
	c := small(ReplRandom)
	for i := 0; i < 100; i++ {
		c.Install(arch.LineAddr(i*4), arch.Exclusive, 0, arch.Cycle(i))
		for s := 0; s < c.Sets(); s++ {
			if n := c.OccupiedWays(s); n > c.Ways() {
				t.Fatalf("set %d occupancy %d > ways", s, n)
			}
		}
	}
}

// Property: under LRU, the victim of a full set is always the least
// recently used line.
func TestLRUVictimProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		c := New(Config{Name: "lru", SizeBytes: 512, Ways: 4, Repl: ReplLRU, Seed: seed})
		// Fill set 0 (lines 0, 2, 4, 6 with 2 sets).
		lines := []arch.LineAddr{0, 2, 4, 6}
		for i, l := range lines {
			c.Install(l, arch.Exclusive, 0, arch.Cycle(i))
		}
		// Random touch sequence; track recency.
		last := map[arch.LineAddr]int{0: 0, 2: 1, 4: 2, 6: 3}
		tick := 4
		for i := 0; i < 50; i++ {
			l := lines[rng.Intn(len(lines))]
			c.Lookup(l)
			last[l] = tick
			tick++
		}
		// The victim must be the line with the oldest touch.
		oldest := lines[0]
		for _, l := range lines[1:] {
			if last[l] < last[oldest] {
				oldest = l
			}
		}
		ev, _ := c.Install(arch.LineAddr(8), arch.Exclusive, 0, arch.Cycle(tick))
		return ev.Tag == oldest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the MSHR never exceeds capacity under random operations.
func TestMSHRCapacityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		m := NewMSHR("p", 4)
		var live []*MSHREntry
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0:
				if e, merged, ok := m.Allocate(arch.LineAddr(rng.Intn(6)), uint64(i)); ok && !merged {
					live = append(live, e)
				}
			case 1:
				if len(live) > 0 {
					idx := rng.Intn(len(live))
					m.Release(live[idx])
					live = append(live[:idx], live[idx+1:]...)
				}
			case 2:
				m.SquashWaiter(arch.LineAddr(rng.Intn(6)), uint64(rng.Intn(i+1)))
			}
			if m.Len() > m.Cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Geometry of the prewarm twins.
const (
	pwSets     = 64
	pwWays     = 4
	pwCapacity = pwSets * pwWays
)

// prewarmTwins builds two identical empty LRU caches of pwSets x pwWays.
func prewarmTwins(ceaserIdx bool) (fast, ref *Cache) {
	build := func() *Cache {
		cfg := Config{Name: "pw", SizeBytes: pwCapacity * arch.LineBytes, Ways: pwWays, Repl: ReplLRU, Seed: 1}
		if ceaserIdx {
			cfg.Indexer = ceaser.New(pwSets, 7)
		}
		return New(cfg)
	}
	return build(), build()
}

// sameState fails unless a and b hold the same lines, LRU stamps, tick and
// Stats.
func sameState(t *testing.T, what string, a, b *Cache) {
	t.Helper()
	for set := 0; set < a.Sets(); set++ {
		for way := 0; way < a.Ways(); way++ {
			if la, lb := a.LineAt(set, way), b.LineAt(set, way); la != lb {
				t.Fatalf("%s: (set %d, way %d) holds %+v, want %+v", what, set, way, la, lb)
			}
		}
	}
	for i := range a.stamp {
		if a.stamp[i] != b.stamp[i] {
			t.Fatalf("%s: stamp[%d] = %d, want %d", what, i, a.stamp[i], b.stamp[i])
		}
	}
	if a.tick != b.tick || a.Stats != b.Stats {
		t.Fatalf("%s: tick %d stats %+v, want tick %d stats %+v", what, a.tick, a.Stats, b.tick, b.Stats)
	}
}

// TestPrewarmMatchesInstallLoop checks the closed-form fill against the
// per-line Install loop it replaces, then drives both twins through the
// same further traffic so any difference in LRU order shows up as a
// different victim.
func TestPrewarmMatchesInstallLoop(t *testing.T) {
	const first = arch.LineAddr(0x80_0000)
	for _, ceaserIdx := range []bool{false, true} {
		for _, n := range []int{0, 1, 100, pwCapacity, pwCapacity + 1, 8 * pwCapacity} {
			fast, ref := prewarmTwins(ceaserIdx)
			what := fmt.Sprintf("ceaser=%v n=%d", ceaserIdx, n)
			fast.Prewarm(first, n, arch.Shared)
			for i := 0; i < n; i++ {
				ref.Install(first+arch.LineAddr(i), arch.Shared, 0, 0)
			}
			sameState(t, what, fast, ref)

			r := xrand.New(uint64(n) + 1)
			span := uint64(n + 2*pwCapacity)
			for i := 0; i < 50_000; i++ {
				l := first + arch.LineAddr(r.Uint64()%span)
				if _, hit := ref.Probe(l); hit {
					fast.Lookup(l)
					ref.Lookup(l)
					continue
				}
				evF, wayF := fast.Install(l, arch.Exclusive, 0, arch.Cycle(i))
				evR, wayR := ref.Install(l, arch.Exclusive, 0, arch.Cycle(i))
				if evF != evR || wayF != wayR {
					t.Fatalf("%s: install %d of %v evicted %+v from way %d, want %+v from way %d", what, i, l, evF, wayF, evR, wayR)
				}
			}
			sameState(t, what+" after 50k installs", fast, ref)
		}
	}
}

func TestPrewarmRejectsUnsupportedCaches(t *testing.T) {
	nonEmpty, _ := prewarmTwins(false)
	nonEmpty.Install(1, arch.Shared, 0, 0)
	for _, tc := range []struct {
		name string
		c    *Cache
	}{
		{"non-empty", nonEmpty},
		{"random", small(ReplRandom)},
		{"partitioned", New(Config{Name: "p", SizeBytes: 512, Ways: 2, Repl: ReplLRU, PartitionWays: 1})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Prewarm did not panic", tc.name)
				}
			}()
			tc.c.Prewarm(0, 4, arch.Shared)
		}()
	}
}
