package memsys

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
)

func testConfig() Config {
	cfg := DefaultConfig(1)
	// Small L1 so eviction tests are easy: 4 sets x 2 ways.
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 512, Ways: 2, Repl: cache.ReplLRU}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 64 << 10, Ways: 16, Repl: cache.ReplLRU}
	return cfg
}

// run drives the hierarchy until the load Load reported as iss completes.
func run(h *Hierarchy, iss Issue) {
	h.Tick(iss.DoneAt)
}

// capture returns a completion callback that stores a copy of the
// completed transaction in *dst: the hierarchy recycles the Txn itself as
// soon as the callback returns.
func capture(dst **Txn) func(*Txn) {
	return func(x *Txn) {
		c := *x
		*dst = &c
	}
}

func TestLoadMissFillsBothLevels(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x100)
	var done *Txn
	txn, ok := h.Load(0, line, 0, 1, LoadOpts{Spec: true, Kind: KindRegular}, capture(&done), 0)
	if !ok {
		t.Fatal("load rejected")
	}
	if txn.Level != LevelMem {
		t.Fatalf("level %v, want Mem", txn.Level)
	}
	wantLat := l1RT + h.L2RT() + h.cfg.DRAM.RTCycles
	if txn.DoneAt != wantLat {
		t.Fatalf("DoneAt %d, want %d", txn.DoneAt, wantLat)
	}
	run(h, txn)
	if done == nil {
		t.Fatal("OnDone not called")
	}
	if !done.SEFE.L1Fill || !done.SEFE.L2Fill {
		t.Fatalf("SEFE %+v: both fills expected", done.SEFE)
	}
	if h.ProbeLevel(0, line) != LevelL1 {
		t.Fatal("line must be in L1 after fill")
	}
	if spec, by := h.L1(0).SpecInfo(line); !spec || by != 0 {
		t.Fatal("speculative install must be marked")
	}
	if h.L1MSHR(0).Len() != 0 {
		t.Fatal("MSHR entry must be released")
	}
}

func TestLoadHitLatency(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x100)
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{}, nil, 0)
	run(h, txn)
	txn2, _ := h.Load(0, line, 200, 2, LoadOpts{}, nil, 0)
	if txn2.Level != LevelL1 || txn2.DoneAt != 200+l1RT {
		t.Fatalf("hit: level %v doneAt %d", txn2.Level, txn2.DoneAt)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x100)
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{}, nil, 0)
	run(h, txn)
	h.L1(0).Invalidate(line)
	txn2, _ := h.Load(0, line, 500, 2, LoadOpts{}, nil, 0)
	if txn2.Level != LevelL2 {
		t.Fatalf("level %v, want L2", txn2.Level)
	}
	if txn2.DoneAt != 500+l1RT+h.L2RT() {
		t.Fatalf("DoneAt %d", txn2.DoneAt)
	}
}

func TestEvictionRecordedInSEFE(t *testing.T) {
	h := New(testConfig())
	// L1 has 4 sets; lines 0, 4, 8 share set 0.
	mk := func(i int) arch.LineAddr { return arch.LineAddr(i * 4) }
	for i := 0; i < 2; i++ {
		txn, _ := h.Load(0, mk(i), arch.Cycle(i*300), uint64(i), LoadOpts{}, nil, 0)
		run(h, txn)
	}
	var fill *Txn
	txn, _ := h.Load(0, mk(2), 1000, 9, LoadOpts{Spec: true}, capture(&fill), 0)
	run(h, txn)
	if fill == nil || !fill.SEFE.L1EvictValid {
		t.Fatalf("eviction not recorded: %+v", fill)
	}
	if fill.SEFE.L1EvictAddr != mk(0) {
		t.Fatalf("victim %v, want %v (LRU)", fill.SEFE.L1EvictAddr, mk(0))
	}
}

func TestInflightSquashDropsFill(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x200)
	var done *Txn
	txn, _ := h.Load(0, line, 0, 7, LoadOpts{Spec: true}, capture(&done), 0)
	// Squash while in flight.
	if !h.SquashLoad(0, line, 7) {
		t.Fatal("squash must find the waiter")
	}
	if h.L1MSHR(0).Zombies() != 1 {
		t.Fatal("entry must be a zombie")
	}
	run(h, txn)
	if done == nil || !done.Dropped {
		t.Fatal("fill must be dropped")
	}
	if h.ProbeLevel(0, line) != LevelMem {
		t.Fatal("no cache level may hold the line after a dropped fill")
	}
	if h.Stats.DroppedFills != 1 {
		t.Fatalf("stats %+v", h.Stats)
	}
	if h.L1MSHR(0).Zombies() != 0 {
		t.Fatal("zombie must be released at data return")
	}
}

func TestSquashWithSurvivingMergedWaiterKeepsFill(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x200)
	var primary *Txn
	t1, _ := h.Load(0, line, 0, 1, LoadOpts{Spec: true}, capture(&primary), 0)
	t2, _ := h.Load(0, line, 0, 2, LoadOpts{Spec: true}, nil, 0)
	if t1.DoneAt != t2.DoneAt {
		t.Fatal("merged loads must complete together")
	}
	// Squash only the first; the second still wants the data.
	h.SquashLoad(0, line, 1)
	run(h, t1)
	if primary == nil || primary.Dropped {
		t.Fatal("fill must survive for the merged waiter")
	}
	if h.ProbeLevel(0, line) != LevelL1 {
		t.Fatal("line must be installed")
	}
}

// TestMergedWaitersCompleteInIssueOrder pins the pending queue's tie-break:
// a primary miss and the waiters merged into its MSHR entry share one
// DoneAt, so they must complete in issue order. Then every waiter's
// callback runs after the primary has applied the fill. The waiter ids
// descend, so ordering by id instead of by issue would fail too.
func TestMergedWaitersCompleteInIssueOrder(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x400)
	checkMergedIssueOrder(t, h, line)
}

// TestPooledMergedWaitersCompleteInIssueOrder repeats the issue-order check
// with every Txn taken from the pool: earlier loads completed in an order
// unlike their issue order, so the free list hands their Txns back
// shuffled, and the pending queue must still order by issue.
func TestPooledMergedWaitersCompleteInIssueOrder(t *testing.T) {
	h := New(testConfig())
	pooled := make(map[*Txn]bool)
	note := func(x *Txn) { pooled[x] = true }
	h.Load(0, arch.LineAddr(0x10), 0, 1, LoadOpts{}, nil, 0)
	h.Load(0, arch.LineAddr(0x30), 0, 2, LoadOpts{}, nil, 0)
	h.Tick(1000)
	h.L1(0).Invalidate(arch.LineAddr(0x10))
	// A memory miss, an L2 hit and an L1 hit, issued slowest first so
	// they complete in reverse issue order.
	h.Load(0, arch.LineAddr(0x20), 2000, 3, LoadOpts{}, note, 0)
	h.Load(0, arch.LineAddr(0x10), 2001, 4, LoadOpts{}, note, 0)
	h.Load(0, arch.LineAddr(0x30), 2002, 5, LoadOpts{}, note, 0)
	h.Tick(3000)
	if len(pooled) != 3 {
		t.Fatalf("setup: %d distinct transactions, want 3", len(pooled))
	}
	for _, x := range checkMergedIssueOrder(t, h, arch.LineAddr(0x400)) {
		if !pooled[x] {
			t.Fatal("a merged-issue-order load did not reuse a pooled Txn")
		}
	}
}

// TestRecycledTxnNeverCompletesIntoNewOwner models a core's load queue the
// way the CPU uses the hierarchy: one long-lived callback, the LQ index as
// the Tag, and a completion accepted only while the slot still holds the
// load's sequence number. A load squashed in flight frees its slot for a
// younger load; the squashed load's completion must not reach the new
// owner, and once its Txn is recycled for a later load, that Txn must carry
// only the later load's identity and outcome.
func TestRecycledTxnNeverCompletesIntoNewOwner(t *testing.T) {
	h := New(testConfig())
	var slotSeq [2]uint64 // LQ model: the live load's seq per slot, 0 = free
	type delivery struct {
		slot    int32
		seq     uint64
		dropped bool
		l1Fill  bool
		txn     *Txn // identity only; never dereferenced after the callback
	}
	var all, accepted []delivery
	onDone := func(x *Txn) {
		d := delivery{slot: x.Tag, seq: x.Seq, dropped: x.Dropped, l1Fill: x.SEFE.L1Fill, txn: x}
		all = append(all, d)
		if slotSeq[x.Tag] == x.Seq {
			accepted = append(accepted, d)
		}
	}
	issue := func(slot int32, seq uint64, line arch.LineAddr, now arch.Cycle) Issue {
		t.Helper()
		slotSeq[slot] = seq
		iss, ok := h.Load(0, line, now, seq, LoadOpts{Spec: true}, onDone, slot)
		if !ok {
			t.Fatalf("load %d rejected", seq)
		}
		return iss
	}

	// Load 1 misses to memory from slot 0 and is squashed in flight; its
	// fill is dropped. Load 2 takes slot 0 while load 1 is still pending.
	first := issue(0, 1, arch.LineAddr(0x100), 0)
	h.SquashLoad(0, arch.LineAddr(0x100), 1)
	slotSeq[0] = 0
	second := issue(0, 2, arch.LineAddr(0x140), 5)
	h.Tick(first.DoneAt)
	if len(all) != 1 || all[0].seq != 1 || !all[0].dropped {
		t.Fatalf("deliveries %+v: want load 1's dropped completion only", all)
	}
	if len(accepted) != 0 {
		t.Fatalf("squashed load 1 completed into slot 0, now owned by load 2: %+v", accepted)
	}
	h.Tick(second.DoneAt)
	if len(accepted) != 1 || accepted[0].seq != 2 || accepted[0].dropped || !accepted[0].l1Fill {
		t.Fatalf("accepted %+v: want exactly load 2's filled completion", accepted)
	}

	// Load 3 reuses slot 0 and the pool's most recently recycled Txn,
	// which last carried load 2; load 4 in slot 1 reuses load 1's dropped
	// Txn and must not inherit its Dropped flag.
	third := issue(0, 3, arch.LineAddr(0x180), second.DoneAt+1)
	fourth := issue(1, 4, arch.LineAddr(0x1c0), second.DoneAt+1)
	h.Tick(third.DoneAt)
	h.Tick(fourth.DoneAt)
	if len(all) != 4 {
		t.Fatalf("deliveries %+v: want four", all)
	}
	if all[2].txn != all[1].txn || all[3].txn != all[0].txn {
		t.Fatal("loads 3 and 4 did not reuse the recycled transactions")
	}
	if len(accepted) != 3 || accepted[1].seq != 3 || accepted[1].slot != 0 || accepted[2].seq != 4 || accepted[2].slot != 1 {
		t.Fatalf("accepted %+v: want loads 2, 3 and 4 each once, in their own slots", accepted)
	}
	for _, d := range accepted {
		if d.dropped || !d.l1Fill {
			t.Fatalf("recycled transaction carried a stale outcome: %+v", d)
		}
	}
}

// checkMergedIssueOrder issues a primary miss on line and two waiters that
// merge into it, then checks that they complete in issue order and that
// every waiter already finds the line in L1. It returns the three Txns'
// identities.
func checkMergedIssueOrder(t *testing.T, h *Hierarchy, line arch.LineAddr) []*Txn {
	t.Helper()
	var order []uint64
	var primary []bool
	var inL1 []bool
	var txns []*Txn
	onDone := func(x *Txn) {
		txns = append(txns, x)
		order = append(order, x.Seq)
		primary = append(primary, x.Primary)
		_, hit := h.L1(0).Probe(line)
		inL1 = append(inL1, hit)
	}
	var issues []Issue
	for _, seq := range []uint64{30, 20, 10} {
		iss, ok := h.Load(0, line, 0, seq, LoadOpts{}, onDone, 0)
		if !ok {
			t.Fatalf("load %d rejected", seq)
		}
		issues = append(issues, iss)
	}
	if issues[1].DoneAt != issues[0].DoneAt || issues[2].DoneAt != issues[0].DoneAt {
		t.Fatal("merged loads must complete together")
	}
	run(h, issues[0])
	if want := []uint64{30, 20, 10}; len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("OnDone order %v, want issue order %v", order, want)
	}
	if !primary[0] || primary[1] || primary[2] {
		t.Fatalf("primary flags %v: the first load must own the MSHR entry and the others merge into it", primary)
	}
	for i, hit := range inL1 {
		if !hit {
			t.Errorf("callback %d (waiter %d) ran before the fill reached L1", i, order[i])
		}
	}
	return txns
}

func TestMergedLoadsShareOneMemoryRequest(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x300)
	h.Load(0, line, 0, 1, LoadOpts{}, nil, 0)
	before := h.DRAM().Stats.Reads
	h.Load(0, line, 1, 2, LoadOpts{}, nil, 0)
	if h.DRAM().Stats.Reads != before {
		t.Fatal("merged load must not issue a second memory request")
	}
}

func TestInvisibleLoadChangesNothing(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x400)
	snapL1 := h.L1(0).SnapshotTags()
	snapL2 := h.L2().SnapshotTags()
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{Spec: true, NoFill: true, Kind: KindInvisible}, nil, 0)
	run(h, txn)
	if txn.Level != LevelMem {
		t.Fatalf("level %v", txn.Level)
	}
	if len(h.L1(0).SnapshotTags()) != len(snapL1) || len(h.L2().SnapshotTags()) != len(snapL2) {
		t.Fatal("invisible load changed cache contents")
	}
	if h.L1MSHR(0).Len() != 0 {
		t.Fatal("invisible load must not hold an MSHR")
	}
	if h.Traffic.Invisible == 0 {
		t.Fatal("invisible traffic must be counted")
	}
}

func TestStoreInstallsModified(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x500)
	h.Store(0, line, 0)
	if h.L1(0).State(line) != arch.Modified {
		t.Fatalf("state %v", h.L1(0).State(line))
	}
	if h.ProbeLevel(0, line) != LevelL1 {
		t.Fatal("store must install")
	}
	if h.Stats.Stores != 1 {
		t.Fatalf("stats %+v", h.Stats)
	}
}

func TestFlushRemovesEverywhere(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x600)
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{}, nil, 0)
	run(h, txn)
	h.Flush(0, line)
	if h.ProbeLevel(0, line) != LevelMem {
		t.Fatal("flush must remove the line from L1 and L2")
	}
}

func TestCleanupInvalidateAndRestore(t *testing.T) {
	h := New(testConfig())
	victim := arch.LineAddr(0)
	txn, _ := h.Load(0, victim, 0, 1, LoadOpts{}, nil, 0)
	run(h, txn)
	// Fill the second way of set 0 too.
	txn, _ = h.Load(0, arch.LineAddr(4), 300, 2, LoadOpts{}, nil, 0)
	run(h, txn)
	// Transient load evicts the victim.
	var fill *Txn
	txn, _ = h.Load(0, arch.LineAddr(8), 600, 3, LoadOpts{Spec: true}, capture(&fill), 0)
	run(h, txn)
	if fill == nil || !fill.SEFE.L1EvictValid {
		t.Fatal("setup: no eviction")
	}
	// Cleanup: invalidate the transient line, restore the victim.
	if !h.CleanupInvalidateL1(0, arch.LineAddr(8)) {
		t.Fatal("invalidate must find the transient line")
	}
	lat := h.RestoreL1(0, fill.SEFE, 1000)
	if lat != h.L2RT() {
		t.Fatalf("restore latency %d, want L2 RT %d", lat, h.L2RT())
	}
	if _, ok := h.L1(0).Probe(fill.SEFE.L1EvictAddr); !ok {
		t.Fatal("victim not restored")
	}
	if _, ok := h.L1(0).Probe(arch.LineAddr(8)); ok {
		t.Fatal("transient line still present")
	}
}

func TestRestoreIsNoOpWithoutEviction(t *testing.T) {
	h := New(testConfig())
	if lat := h.RestoreL1(0, cache.SEFE{}, 0); lat != 0 {
		t.Fatalf("latency %d", lat)
	}
}

func TestSpecWindowProtection(t *testing.T) {
	cfg := testConfig()
	cfg.NumCores = 2
	cfg.ProtectSpecWindow = true
	h := New(cfg)
	line := arch.LineAddr(0x700)
	// Core 0 installs speculatively... but into core 0's L1, so a probe
	// from core 1 misses L1 anyway and hits L2. Make core 1 share core
	// 0's L1? No: the window protection also guards the L2 copy. Probe
	// the L2 path.
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{Spec: true}, nil, 0)
	run(h, txn)
	if spec, _ := h.L2().SpecInfo(line); !spec {
		t.Fatal("L2 copy must be spec-marked")
	}
	// Core 1 accesses within the window: the L2 copy is speculative, so
	// its miss is serviced from memory-latency path. We validate via the
	// same-L1 dummy-miss mechanism using core 1's own L1 after a
	// cross-install: exercise dummyMissLatency directly.
	if lat := h.dummyMissLatency(line); lat != h.L2RT()+h.cfg.DRAM.RTCycles {
		t.Fatalf("dummy miss latency %d; spec L2 copy must cost a memory trip", lat)
	}
	// After the installer's load retires, marks are cleared and the
	// protected latency relaxes to an L2 hit.
	h.ClearSpecMark(0, line)
	if lat := h.dummyMissLatency(line); lat != h.L2RT() {
		t.Fatalf("post-retire dummy latency %d, want L2 RT", lat)
	}
}

func TestCrossCoreL1DummyMiss(t *testing.T) {
	// Two cores sharing an L1 partition is the SMT case; model it by
	// having core 1 probe a line spec-installed in ITS OWN L1 by
	// marking installer as core 0 (as an SMT sibling would see).
	cfg := testConfig()
	cfg.NumCores = 2
	cfg.ProtectSpecWindow = true
	h := New(cfg)
	line := arch.LineAddr(0x800)
	txn, _ := h.Load(1, line, 0, 1, LoadOpts{}, nil, 0)
	run(h, txn)
	h.L1(1).MarkSpec(line, 0) // installed by sibling thread 0
	probe, _ := h.Load(1, line, 500, 2, LoadOpts{}, nil, 0)
	if probe.DoneAt-500 <= l1RT {
		t.Fatal("window-protected hit must cost a dummy miss")
	}
	if h.Stats.DummyMisses != 1 {
		t.Fatalf("stats %+v", h.Stats)
	}
}

func TestSafeGetSDelaysOnRemoteOwner(t *testing.T) {
	cfg := testConfig()
	cfg.NumCores = 2
	h := New(cfg)
	line := arch.LineAddr(0x900)
	h.Store(1, line, 0) // core 1 owns M
	txn, ok := h.Load(0, line, 10, 5, LoadOpts{Spec: true, SafeGetS: true}, nil, 0)
	if !ok || txn.Level != LevelDelayed {
		t.Fatalf("want LevelDelayed, got %+v ok=%v", txn, ok)
	}
	if h.PendingLen() != 0 {
		t.Fatal("a failed GetS-Safe must not schedule a completion")
	}
	// No state change on the remote side.
	if h.L1(1).State(line) != arch.Modified {
		t.Fatal("GetS-Safe must not downgrade the remote owner")
	}
	// Retry without SafeGetS (correct path) succeeds and downgrades.
	txn2, _ := h.Load(0, line, 20, 6, LoadOpts{}, nil, 0)
	run(h, txn2)
	if h.L1(1).State(line) != arch.Shared {
		t.Fatal("plain GetS must downgrade")
	}
}

func TestMSHRFullRejectsLoad(t *testing.T) {
	cfg := testConfig()
	cfg.L1MSHRs = 1
	h := New(cfg)
	h.Load(0, arch.LineAddr(0x10), 0, 1, LoadOpts{}, nil, 0)
	if _, ok := h.Load(0, arch.LineAddr(0x20), 0, 2, LoadOpts{}, nil, 0); ok {
		t.Fatal("second miss must be rejected with a full MSHR")
	}
	// Same line merges fine even when full.
	if _, ok := h.Load(0, arch.LineAddr(0x10), 0, 3, LoadOpts{}, nil, 0); !ok {
		t.Fatal("merge must succeed despite full MSHR")
	}
}

func TestEpochBump(t *testing.T) {
	h := New(testConfig())
	if h.Epoch(0) != 0 {
		t.Fatal("initial epoch")
	}
	if e := h.BumpEpoch(0); e != 1 {
		t.Fatalf("epoch %d", e)
	}
}

func TestInclusionBackInvalidate(t *testing.T) {
	cfg := testConfig()
	// Tiny L2: 2 sets x 2 ways = 4 lines, so installs quickly evict.
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 256, Ways: 2, Repl: cache.ReplLRU}
	h := New(cfg)
	// Fill L2 set 0 (L2 lines 0 and 2 with 2 sets).
	lines := []arch.LineAddr{0, 2, 4}
	for i, l := range lines {
		txn, _ := h.Load(0, l, arch.Cycle(i*1000), uint64(i), LoadOpts{}, nil, 0)
		run(h, txn)
	}
	// Line 0 was evicted from L2 by line 4's install; inclusion demands
	// it left the L1 too.
	if _, hit := h.L2().Probe(0); hit {
		t.Skip("LRU kept line 0; adjust lines")
	}
	if _, hit := h.L1(0).Probe(0); hit {
		t.Fatal("inclusion violated: L1 holds a line the L2 evicted")
	}
}

func TestTrafficAccounting(t *testing.T) {
	h := New(testConfig())
	txn, _ := h.Load(0, arch.LineAddr(0xA0), 0, 1, LoadOpts{Kind: KindRegular}, nil, 0)
	run(h, txn)
	// L1 access + L1->L2 + L2->mem = 3 messages.
	if h.Traffic.Regular != 3 {
		t.Fatalf("regular traffic %d, want 3", h.Traffic.Regular)
	}
}

func TestIFetchHitAndMiss(t *testing.T) {
	h := New(DefaultConfig(1))
	// Cold fetch: miss to memory.
	ready := h.IFetch(0, 0, 100)
	if ready <= 100 {
		t.Fatal("cold instruction fetch must stall")
	}
	// Same line: hit, no stall.
	if got := h.IFetch(0, 1, 200); got != 200 {
		t.Fatalf("warm fetch stalled until %d", got)
	}
	// Next line: L2 hit after... the first fill went through installL2,
	// but only the first line; pc 8 is the next line, cold again.
	ready2 := h.IFetch(0, 8, 300)
	if ready2 <= 300 {
		t.Fatal("next-line fetch must miss")
	}
	if h.L1I(0).Stats.Misses != 2 {
		t.Fatalf("icache stats: %+v", h.L1I(0).Stats)
	}
}

// TestIFetchRemembersLine checks IFetch, which re-records a repeat of its
// last line without a lookup, against a twin I-cache driven by Lookup and
// Install alone. The fetches repeat lines, overflow one set and return to
// an evicted line, and a prewarm large enough to evict the remembered line
// runs midway; hits, stats and every set's LRU victim must match.
func TestIFetchRemembersLine(t *testing.T) {
	h := New(DefaultConfig(1))
	ic := h.L1I(0)
	twin := cache.New(cache.Config{Name: "L1I", SizeBytes: l1iBytes, Ways: l1iWays, Repl: cache.ReplLRU})
	perLine := arch.Addr(arch.LineBytes / arch.InstBytes)
	stride := arch.Addr(ic.Sets()) * perLine // next line in the same set
	fetch := func(pc arch.Addr) {
		t.Helper()
		_, want := twin.Lookup(arch.PCLine(pc))
		if !want {
			twin.Install(arch.PCLine(pc), arch.Shared, 0, 0)
		}
		if hit := h.IFetch(0, pc, 1) == 1; hit != want {
			t.Fatalf("pc %d: hit %v, twin %v", pc, hit, want)
		}
	}
	for i := arch.Addr(0); i < 6; i++ {
		fetch(i * stride)
		fetch(i*stride + 1)
		fetch(0)
		fetch(1)
	}
	codeLen := 6 * int(stride)
	h.PrewarmICache(0, codeLen)
	for pc := 0; pc < codeLen; pc += int(perLine) {
		if l := arch.PCLine(arch.Addr(pc)); twin.State(l) == arch.Invalid {
			twin.Install(l, arch.Shared, 0, 0)
		}
	}
	fetch(0)
	fetch(2)
	if ic.Stats != twin.Stats {
		t.Fatalf("stats %+v, twin %+v", ic.Stats, twin.Stats)
	}
	for set := 0; set < ic.Sets(); set++ {
		l := arch.PCLine(arch.Addr(set) * perLine)
		_, w := ic.Victim(l, 0)
		_, tw := twin.Victim(l, 0)
		if w != tw {
			t.Fatalf("set %d: victim way %d, twin %d", set, w, tw)
		}
	}
}

func TestPrewarmICache(t *testing.T) {
	h := New(DefaultConfig(1))
	h.PrewarmICache(0, 100) // 100 instructions = 13 lines
	for pc := 0; pc < 100; pc += 5 {
		if got := h.IFetch(0, arch.Addr(pc), 10); got != 10 {
			t.Fatalf("pc %d missed after prewarm", pc)
		}
	}
}

// TestPrewarmL2 checks the bulk fill against the per-line installL2 loop it
// replaced, with a footprint twice the L2's size, on a modulo and a CEASER
// L2. On the CEASER L2 it then walks a whole remap epoch over both, since
// remap visits each set's lines in way order. The L1s must stay empty.
func TestPrewarmL2(t *testing.T) {
	first := arch.Addr(0x2000_0000).Line()
	for _, randomize := range []bool{false, true} {
		cfg := DefaultConfig(1)
		cfg.RandomizeL2 = randomize
		n := 2 * cfg.L2.SizeBytes / arch.LineBytes
		fast, ref := New(cfg), New(cfg)
		fast.PrewarmL2(first, n)
		for i := 0; i < n; i++ {
			ref.installL2(first+arch.LineAddr(i), false, 0, 0)
		}
		name := "mod"
		if randomize {
			name = "ceaser"
		}
		sameL2(t, name, fast, ref)
		if randomize {
			fast.L2StartRemap(9)
			ref.L2StartRemap(9)
			moved := 0
			for s := 0; s < fast.L2().Sets(); s++ {
				mf, mr := fast.L2RemapStep(), ref.L2RemapStep()
				if mf != mr {
					t.Fatalf("%s: remap step %d moved %d lines, want %d", name, s, mf, mr)
				}
				moved += mf
			}
			if moved == 0 {
				t.Fatalf("%s: the remap epoch moved no lines", name)
			}
			sameL2(t, name+" after a remap epoch", fast, ref)
		}
		for set := 0; set < fast.L1(0).Sets(); set++ {
			if w := fast.L1(0).OccupiedWays(set); w != 0 {
				t.Fatalf("%s: L1D set %d holds %d lines after prewarm", name, set, w)
			}
		}
		if fast.Traffic != ref.Traffic || fast.Stats != ref.Stats {
			t.Fatalf("%s: traffic %+v stats %+v, want %+v %+v", name, fast.Traffic, fast.Stats, ref.Traffic, ref.Stats)
		}
	}
}

// sameL2 fails unless a and b's L2s hold the same line in every way and
// have the same Stats.
func sameL2(t *testing.T, what string, a, b *Hierarchy) {
	t.Helper()
	la, lb := a.L2(), b.L2()
	for set := 0; set < la.Sets(); set++ {
		for way := 0; way < la.Ways(); way++ {
			if x, y := la.LineAt(set, way), lb.LineAt(set, way); x != y {
				t.Fatalf("%s: L2 (set %d, way %d) holds %+v, want %+v", what, set, way, x, y)
			}
		}
	}
	if la.Stats != lb.Stats {
		t.Fatalf("%s: L2 stats %+v, want %+v", what, la.Stats, lb.Stats)
	}
}
