package cache

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
)

func TestMSHRAllocateMergeRelease(t *testing.T) {
	m := NewMSHR("l1", 2)
	e1, merged, ok := m.Allocate(arch.LineAddr(1), 100)
	if !ok || merged || e1 == nil {
		t.Fatalf("first alloc: (%v,%v,%v)", e1, merged, ok)
	}
	e2, merged, ok := m.Allocate(arch.LineAddr(1), 101)
	if !ok || !merged || e2 != e1 {
		t.Fatal("same-line alloc must merge")
	}
	if len(e1.Waiters) != 2 {
		t.Fatalf("waiters %v", e1.Waiters)
	}
	if m.Stats.Merges != 1 || m.Stats.Allocs != 1 {
		t.Fatalf("stats %+v", *m)
	}
	m.Allocate(arch.LineAddr(2), 102)
	if !m.FullNow() {
		t.Fatal("MSHR should be full at 2 entries")
	}
	if _, _, ok := m.Allocate(arch.LineAddr(3), 103); ok {
		t.Fatal("allocation must fail when full")
	}
	if m.Stats.Full != 1 {
		t.Fatalf("full count %d", m.Stats.Full)
	}
	m.Release(e1)
	if m.Len() != 1 {
		t.Fatalf("len %d", m.Len())
	}
	// Releasing again is harmless (line no longer indexed to e1).
	m.Release(e1)
	if m.Len() != 1 {
		t.Fatalf("len %d after double release", m.Len())
	}
}

func TestMSHRSquashWaiterZombies(t *testing.T) {
	m := NewMSHR("l1", 2)
	e, _, _ := m.Allocate(arch.LineAddr(1), 10)
	m.Allocate(arch.LineAddr(1), 11)
	if !m.SquashWaiter(arch.LineAddr(1), 10) {
		t.Fatal("waiter 10 should be found")
	}
	if e.Squashed {
		t.Fatal("entry with remaining waiters must not be squashed")
	}
	if !m.SquashWaiter(arch.LineAddr(1), 11) {
		t.Fatal("waiter 11 should be found")
	}
	if !e.Squashed {
		t.Fatal("entry with no remaining waiters must be squashed")
	}
	// The zombie holds capacity but frees the line index: a retry gets a
	// fresh entry (fresh memory request), per Section 3.3.
	if m.Zombies() != 1 || m.Len() != 1 {
		t.Fatalf("zombies %d len %d", m.Zombies(), m.Len())
	}
	e2, merged, ok := m.Allocate(arch.LineAddr(1), 12)
	if !ok || merged || e2 == e {
		t.Fatal("retry must allocate a fresh entry, not merge onto the zombie")
	}
	if !m.FullNow() {
		t.Fatal("zombie + fresh entry must fill a 2-entry MSHR")
	}
	// Data returns for the zombie: capacity released.
	m.Release(e)
	if m.Zombies() != 0 || m.FullNow() {
		t.Fatalf("zombie release failed: zombies %d", m.Zombies())
	}
	// Releasing the live retry entry must not be confused by line reuse.
	m.Release(e2)
	if m.Len() != 0 {
		t.Fatalf("len %d", m.Len())
	}
	if m.SquashWaiter(arch.LineAddr(9), 1) {
		t.Fatal("absent line must report false")
	}
}

func TestMSHRReleaseWrongPointerIsSafe(t *testing.T) {
	m := NewMSHR("l1", 4)
	e1, _, _ := m.Allocate(arch.LineAddr(1), 10)
	m.SquashWaiter(arch.LineAddr(1), 10) // e1 becomes zombie
	e2, _, _ := m.Allocate(arch.LineAddr(1), 11)
	// Release the zombie: must not delete e2's index entry.
	m.Release(e1)
	if got, ok := m.Lookup(arch.LineAddr(1)); !ok || got != e2 {
		t.Fatal("zombie release clobbered the live entry")
	}
}

func TestMSHRCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMSHR("bad", 0)
}

func TestSEFEStorageBits(t *testing.T) {
	// Section 6.6: LQ/L1-MSHR SEFE ~7 bytes, L2-MSHR SEFE ~2 bytes.
	if StorageBitsLQ != 56 {
		t.Fatalf("LQ SEFE bits = %d, want 56 (7 bytes)", StorageBitsLQ)
	}
	if StorageBitsL2 != 16 {
		t.Fatalf("L2 SEFE bits = %d, want 16 (2 bytes)", StorageBitsL2)
	}
}

// TestMSHRStatsBound pins the counter carve-out into MSHRStats: every
// counter keeps counting through the Stats field and every one stays
// bound into the registry under its historical name.
func TestMSHRStatsBound(t *testing.T) {
	m := NewMSHR("l1", 1)
	m.Allocate(arch.LineAddr(1), 100)
	m.Allocate(arch.LineAddr(1), 101) // merge
	m.Allocate(arch.LineAddr(2), 102) // full

	reg := metrics.NewRegistry()
	m.AttachMetrics(reg, "l1d.mshr")
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"l1d.mshr.allocs": 1,
		"l1d.mshr.merges": 1,
		"l1d.mshr.full":   1,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
}
