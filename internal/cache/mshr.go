package cache

import (
	"fmt"

	"repro/internal/arch"
)

// SEFE is the paper's Side-Effect Entry (Figure 7). One SEFE rides with each
// load through the load queue and the L1/L2 MSHRs, recording the cache
// side effects the load caused so that a squash can undo exactly those
// effects and nothing else.
//
// The shaded fields in Figure 7 (IsSpec, EpochID) are filled by the
// load/store unit at issue; the rest are filled by the cache hierarchy
// during miss handling.
type SEFE struct {
	// LoadID orders loads by the time their fills were applied to the
	// cache; cleanup runs in reverse LoadID order (Section 3.4). The
	// modeled hardware field is 8 bits (Figure 7).
	LoadID uint8
	// L1Fill / L2Fill record that the load installed a new line at that
	// level (Figure 7's 1-bit fields).
	L1Fill bool
	L2Fill bool
	// L1EvictValid/L1EvictAddr record the victim evicted from the L1 by
	// the install, so it can be restored on squash. L1Way remembers the
	// exact way so restoration reverses the eviction precisely.
	L1EvictValid bool
	L1EvictAddr  arch.LineAddr
	L1EvictDirty bool
	L1EvictState arch.CohState
	L1Way        int
	// IsSpec marks a speculatively issued load (threat model: every load
	// issued before it is unsquashable).
	IsSpec bool
	// EpochID identifies the execution phase between two cleanups; a
	// response tagged with a stale epoch is dropped without a fill
	// (Section 3.3).
	EpochID uint8
}

// StorageBitsLQ is the SEFE size in an LQ or L1-MSHR entry: 3 status bits
// (isSpec, L1-Fill, L2-Fill) + 8-bit LoadID + 5-bit EpochID + 40-bit evicted
// line address, per Figure 7 and Section 6.6.
const StorageBitsLQ = 3 + 8 + 5 + arch.LineAddrBits

// StorageBitsL2 is the SEFE size in an L2-MSHR entry (no evict address).
const StorageBitsL2 = 3 + 8 + 5

// MSHREntry tracks one outstanding miss.
type MSHREntry struct {
	Line    arch.LineAddr
	ReadyAt arch.Cycle
	SEFE    SEFE
	// Waiters are the load sequence numbers merged onto this miss.
	Waiters []uint64
	// Squashed marks the entry as dropped-on-return: every waiter was
	// squashed, so the fill must not be applied (Section 3.3). Squashed
	// entries leave the line index (a fresh request to the same line
	// gets a new entry and a fresh memory request, as the paper
	// specifies) but keep consuming capacity until the data returns.
	Squashed bool

	next   *MSHREntry // free-list link while the entry is pooled
	pooled bool       // released and not yet reallocated
}

// MSHR models a miss status holding register file with a fixed number of
// entries. Live entries are keyed by line address; requests to the same
// line merge onto one entry. Squashed ("zombie") entries are unindexed but
// still occupy capacity until released at data return. Released entries
// are recycled, so an *MSHREntry is valid only until its Release.
type MSHR struct {
	name    string
	cap     int
	entries map[arch.LineAddr]*MSHREntry
	zombies int
	free    *MSHREntry // released entries, linked through next

	// Stats counts MSHR traffic; AttachMetrics binds every field.
	Stats MSHRStats
}

// MSHRStats counts MSHR traffic. Monitoring only: counters are not
// architectural state, so a squash does not roll them back (squashed
// allocations still happened and still cost an entry).
type MSHRStats struct {
	Allocs   uint64
	Merges   uint64
	Full     uint64
	Dropped  uint64 // fills dropped because the entry was squashed
	Squashes uint64 // entries marked squashed
}

// NewMSHR creates an MSHR with capacity entries.
func NewMSHR(name string, capacity int) *MSHR {
	if capacity <= 0 {
		// A bad capacity is a programmer error, caught at construction.
		panic(fmt.Sprintf("mshr %s: capacity %d", name, capacity))
	}
	return &MSHR{name: name, cap: capacity, entries: make(map[arch.LineAddr]*MSHREntry, capacity)}
}

// Cap returns the configured capacity.
func (m *MSHR) Cap() int { return m.cap }

// Len returns the number of occupied entries, including zombies.
func (m *MSHR) Len() int { return len(m.entries) + m.zombies }

// Zombies returns the number of squashed entries awaiting their data.
func (m *MSHR) Zombies() int { return m.zombies }

// FullNow reports whether a new allocation would fail.
func (m *MSHR) FullNow() bool { return m.Len() >= m.cap }

// Lookup returns the live entry for line, if any.
func (m *MSHR) Lookup(line arch.LineAddr) (*MSHREntry, bool) {
	e, ok := m.entries[line]
	return e, ok
}

// Allocate creates an entry for line, or merges onto an existing live one.
// It returns (entry, merged, ok); ok is false when the MSHR is full.
func (m *MSHR) Allocate(line arch.LineAddr, waiter uint64) (e *MSHREntry, merged, ok bool) {
	e, merged = m.entries[line]
	if merged {
		m.Stats.Merges++
	} else {
		if m.FullNow() {
			m.Stats.Full++
			return nil, false, false
		}
		e = m.free
		if e == nil {
			e = &MSHREntry{}
		} else {
			//simlint:allow undocomplete -- entry free list: host memory reuse, not modelled cache state; a squash has nothing to restore
			m.free = e.next
		}
		*e = MSHREntry{Line: line, Waiters: e.Waiters[:0]}
		m.entries[line] = e
		m.Stats.Allocs++
	}
	e.Waiters = append(e.Waiters, waiter)
	return e, merged, true
}

// Release frees entry when its data returns: a live entry leaves the index,
// a zombie releases its held capacity. Safe against the index having been
// re-populated for the same line by a newer request, and against a second
// Release. The entry is recycled by a later Allocate, so the caller must
// read what it needs first.
func (m *MSHR) Release(e *MSHREntry) {
	if e.pooled {
		return
	}
	if e.Squashed {
		if m.zombies > 0 {
			m.zombies--
		}
	} else if cur, ok := m.entries[e.Line]; ok && cur == e {
		delete(m.entries, e.Line)
	}
	e.pooled = true
	e.next = m.free
	m.free = e
}

// SquashWaiter removes waiter from line's live entry. If no waiters remain
// the entry is squashed: removed from the index (so a retry allocates a
// fresh entry and a fresh memory request) but holding capacity until the
// in-flight data returns. It reports whether the waiter was found.
func (m *MSHR) SquashWaiter(line arch.LineAddr, waiter uint64) bool {
	e, ok := m.entries[line]
	if !ok {
		return false
	}
	for i, w := range e.Waiters {
		if w == waiter {
			e.Waiters = append(e.Waiters[:i], e.Waiters[i+1:]...)
			if len(e.Waiters) == 0 {
				e.Squashed = true
				m.Stats.Squashes++
				m.zombies++
				delete(m.entries, line)
			}
			return true
		}
	}
	return false
}

// Entries returns the live entries (order unspecified); tests only.
func (m *MSHR) Entries() []*MSHREntry {
	out := make([]*MSHREntry, 0, len(m.entries))
	//simlint:ordered -- test-only accessor documented as order-unspecified; callers sort or count
	for _, e := range m.entries {
		out = append(out, e)
	}
	return out
}
