package memsys

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
)

func remapConfig(every uint64) Config {
	cfg := DefaultConfig(1)
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 512, Ways: 2, Repl: cache.ReplLRU}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 64 << 10, Ways: 4, Repl: cache.ReplLRU}
	cfg.RandomizeL2 = true
	cfg.L2RemapEvery = every
	return cfg
}

// noOrphans asserts every physically resident L2 line is findable by Probe
// under the current (possibly mid-remap) mapping — the invariant gradual
// relocation must preserve.
func noOrphans(t *testing.T, h *Hierarchy) {
	t.Helper()
	for tag := range h.L2().SnapshotTags() {
		if _, hit := h.L2().Probe(tag); !hit {
			t.Fatalf("orphaned line %v: resident but unfindable", tag)
		}
	}
}

func TestManualRemapKeepsLinesFindable(t *testing.T) {
	h := New(remapConfig(0))
	now := arch.Cycle(0)
	// Populate the L2 with committed loads.
	for i := 0; i < 200; i++ {
		txn, ok := h.Load(0, arch.LineAddr(i*7), now, uint64(i), LoadOpts{}, nil, 0)
		if !ok {
			t.Fatal("load rejected")
		}
		now = txn.DoneAt + 1
		h.Tick(now)
	}
	noOrphans(t, h)

	h.L2StartRemap(1234)
	steps := 0
	for h.L2Indexer().Remapping() {
		h.L2RemapStep()
		steps++
		if steps%16 == 0 {
			noOrphans(t, h)
		}
		if steps > h.L2().Sets()+1 {
			t.Fatal("remap did not terminate")
		}
	}
	noOrphans(t, h)
	if h.L2Indexer().Remaps != 1 {
		t.Fatalf("remaps %d", h.L2Indexer().Remaps)
	}
}

func TestAutoRemapPacing(t *testing.T) {
	h := New(remapConfig(4)) // one relocation step per 4 L2 accesses
	now := arch.Cycle(0)
	for i := 0; i < 2000; i++ {
		txn, ok := h.Load(0, arch.LineAddr(i*13), now, uint64(i), LoadOpts{}, nil, 0)
		if !ok {
			t.Fatal("load rejected")
		}
		now = txn.DoneAt + 1
		h.Tick(now)
		if i%100 == 0 {
			noOrphans(t, h)
		}
	}
	noOrphans(t, h)
	ix := h.L2Indexer()
	if ix.Remaps == 0 && !ix.Remapping() {
		t.Fatal("auto-paced remap never started")
	}
}

func TestRemapPreservesDirtyData(t *testing.T) {
	h := New(remapConfig(0))
	line := arch.LineAddr(0x123)
	h.Store(0, line, 0)
	// Evict from L1 so the L2 copy carries the dirty bit... the L2 copy
	// is marked dirty by Store already.
	h.L2StartRemap(7)
	for h.L2Indexer().Remapping() {
		h.L2RemapStep()
	}
	if _, hit := h.L2().Probe(line); !hit {
		t.Skip("line evicted by relocation conflict; acceptable")
	}
	way, _ := h.L2().Probe(line)
	if !h.L2().LineAt(h.L2().SetFor(line), way).Dirty {
		t.Fatal("relocation dropped the dirty bit")
	}
}
