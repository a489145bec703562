// Package coherence implements a directory-based MESI protocol for the
// private L1 caches sharing an inclusive L2. The paper's GetS-Safe
// transaction (Section 3.5), a read that succeeds only if it does not force
// a remote M/E -> S downgrade, is RemoteOwner checked before GetS:
// memsys delays a speculative load whose line a remote core owns and
// retries it as an ordinary GetS once the load is unsquashable, so a
// transient load can never cause an observable coherence downgrade in a
// remote cache.
//
// The directory tracks, per line, the owning core (M/E) or the sharer set
// (S). The actual per-core tag arrays live in internal/cache; callers apply
// the directory's prescribed downgrades/invalidations to those arrays.
// The paper randomizes the directory's indexing along with the L2 to defeat
// directory-conflict attacks (Yan et al., S&P'19); this model keys the
// directory by full line address, which makes such conflicts impossible by
// construction and is noted as the modeling equivalent in DESIGN.md.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/arch"
)

// Source says where the data for a grant came from.
type Source int

const (
	// SrcMemory means the line came from DRAM (or the shared L2 missed).
	SrcMemory Source = iota
	// SrcShared means the shared L2 supplied the data.
	SrcShared
	// SrcRemote means a remote L1 supplied the data (cache-to-cache).
	SrcRemote
)

func (s Source) String() string {
	switch s {
	case SrcMemory:
		return "memory"
	case SrcShared:
		return "shared"
	case SrcRemote:
		return "remote"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Grant describes the outcome of a directory transaction: the state granted
// to the requester and the remote actions the caller must apply. The
// remote cores are bit masks (bit c is core c), as the directory holds its
// sharers; callers visit the set bits in ascending core order.
type Grant struct {
	// State is the MESI state granted to the requesting core.
	State arch.CohState
	// Downgrades masks the remote cores whose copy must go M/E -> S.
	Downgrades uint64
	// Invalidates masks the remote cores whose copy must be invalidated.
	Invalidates uint64
	// Source is where the data is supplied from.
	Source Source
	// RemoteOwned reports that the line was in a remote M/E before this
	// request — the condition that makes a speculative GetS unsafe.
	RemoteOwned bool
}

type entry struct {
	owner   int    // core holding E/M, -1 if none
	sharers uint64 // bitmask of cores holding S
	dirty   bool   // owner's copy is Modified (for writeback accounting)
}

// Stats counts directory transactions.
type Stats struct {
	GetS        uint64
	GetX        uint64
	Downgrades  uint64
	Invalidates uint64
	Writebacks  uint64
	Flushes     uint64
}

// Directory is the MESI directory. Entries are stored by value, so
// tracking a line allocates nothing beyond the map's own growth.
type Directory struct {
	cores   int
	entries map[arch.LineAddr]entry

	Stats Stats
}

// NewDirectory creates a directory for cores cores (max 64).
func NewDirectory(cores int) *Directory {
	if cores <= 0 || cores > 64 {
		// A bad core count is a programmer error, caught at construction.
		panic(fmt.Sprintf("coherence: bad core count %d", cores))
	}
	return &Directory{cores: cores, entries: make(map[arch.LineAddr]entry)}
}

// get returns l's entry, or an empty one (no owner, no sharers) when l is
// untracked. Callers store the updated entry back.
func (d *Directory) get(l arch.LineAddr) entry {
	if e, ok := d.entries[l]; ok {
		return e
	}
	return entry{owner: -1}
}

func (d *Directory) checkCore(core int) {
	if core < 0 || core >= d.cores {
		// An out-of-range core id means the simulator state is corrupt.
		panic(fmt.Sprintf("coherence: core %d out of range [0,%d)", core, d.cores))
	}
}

// State returns the directory's view of core's copy of l.
func (d *Directory) State(core int, l arch.LineAddr) arch.CohState {
	d.checkCore(core)
	e, ok := d.entries[l]
	if !ok {
		return arch.Invalid
	}
	if e.owner == core {
		if e.dirty {
			return arch.Modified
		}
		return arch.Exclusive
	}
	if e.sharers&(1<<uint(core)) != 0 {
		return arch.Shared
	}
	return arch.Invalid
}

// RemoteOwner returns the core (other than asker) holding l in M/E, or -1.
func (d *Directory) RemoteOwner(asker int, l arch.LineAddr) int {
	if e, ok := d.entries[l]; ok && e.owner >= 0 && e.owner != asker {
		return e.owner
	}
	return -1
}

// GetS is an ordinary read request: the requester gets S (or E if no other
// copy exists); a remote M/E owner is downgraded to S.
func (d *Directory) GetS(core int, l arch.LineAddr) Grant {
	d.checkCore(core)
	d.Stats.GetS++
	return d.getS(core, l)
}

func (d *Directory) getS(core int, l arch.LineAddr) Grant {
	e := d.get(l)
	bit := uint64(1) << uint(core)
	switch {
	case e.owner == core:
		// Already owned locally; nothing to do.
		st := arch.Exclusive
		if e.dirty {
			st = arch.Modified
		}
		return Grant{State: st, Source: SrcShared}
	case e.owner >= 0:
		// Remote owner: downgrade to S, both become sharers.
		g := Grant{
			State:       arch.Shared,
			Downgrades:  1 << uint(e.owner),
			Source:      SrcRemote,
			RemoteOwned: true,
		}
		d.Stats.Downgrades++
		if e.dirty {
			d.Stats.Writebacks++ // owner writes back on downgrade
		}
		e.sharers = (1 << uint(e.owner)) | bit
		e.owner = -1
		e.dirty = false
		d.entries[l] = e
		return g
	case e.sharers != 0:
		e.sharers |= bit
		d.entries[l] = e
		return Grant{State: arch.Shared, Source: SrcShared}
	default:
		// Sole copy: grant Exclusive.
		e.owner = core
		d.entries[l] = e
		return Grant{State: arch.Exclusive, Source: SrcMemory}
	}
}

// GetX is a write (RFO) request: all other copies are invalidated and the
// requester gets M.
func (d *Directory) GetX(core int, l arch.LineAddr) Grant {
	d.checkCore(core)
	d.Stats.GetX++
	e := d.get(l)
	g := Grant{State: arch.Modified}
	switch {
	case e.owner == core:
		g.Source = SrcShared
	case e.owner >= 0:
		g.Invalidates = 1 << uint(e.owner)
		g.Source = SrcRemote
		g.RemoteOwned = true
		if e.dirty {
			d.Stats.Writebacks++
		}
	default:
		g.Source = SrcShared
		g.Invalidates = e.sharers &^ (1 << uint(core))
	}
	d.Stats.Invalidates += uint64(bits.OnesCount64(g.Invalidates))
	d.entries[l] = entry{owner: core, dirty: true}
	return g
}

// Evict tells the directory core dropped its copy of l (clean eviction or
// writeback; writebacks are counted when dirty is true).
func (d *Directory) Evict(core int, l arch.LineAddr, dirty bool) {
	d.checkCore(core)
	e, ok := d.entries[l]
	if !ok {
		return
	}
	if e.owner == core {
		if dirty || e.dirty {
			d.Stats.Writebacks++
		}
		e.owner = -1
		e.dirty = false
	}
	e.sharers &^= 1 << uint(core)
	if e.owner < 0 && e.sharers == 0 {
		delete(d.entries, l)
	} else {
		d.entries[l] = e
	}
}

// Flush implements clflush's coherence action: every copy of l anywhere is
// invalidated. It returns the mask of cores that held a copy. CleanupSpec
// delays the *execution* of a transient clflush until commit (Section 3.5,
// Table 2); the delay lives in the CPU model — by the time Flush is called
// the instruction is non-speculative.
func (d *Directory) Flush(l arch.LineAddr) uint64 {
	e, ok := d.entries[l]
	if !ok {
		return 0
	}
	holders := e.sharers
	if e.owner >= 0 {
		holders |= 1 << uint(e.owner)
		if e.dirty {
			d.Stats.Writebacks++
		}
	}
	d.Stats.Invalidates += uint64(bits.OnesCount64(holders))
	d.Stats.Flushes++
	delete(d.entries, l)
	return holders
}

// Check verifies the protocol invariants over all tracked lines:
// single-writer (an owner excludes all sharers) and sharer masks within the
// configured core count. It returns the first violation found.
func (d *Directory) Check() error {
	//simlint:ordered -- invariant sweep returns an arbitrary first violation; which one is reported never affects simulation state
	for l, e := range d.entries {
		if e.owner >= d.cores {
			return fmt.Errorf("line %v: owner %d out of range", l, e.owner)
		}
		if e.owner >= 0 && e.sharers != 0 {
			return fmt.Errorf("line %v: owner %d coexists with sharers %b", l, e.owner, e.sharers)
		}
		if e.sharers>>uint(d.cores) != 0 {
			return fmt.Errorf("line %v: sharer mask %b exceeds %d cores", l, e.sharers, d.cores)
		}
		if e.owner < 0 && e.sharers == 0 {
			return fmt.Errorf("line %v: empty entry not garbage-collected", l)
		}
		if e.dirty && e.owner < 0 {
			return fmt.Errorf("line %v: dirty without owner", l)
		}
	}
	return nil
}

// Lines returns the number of tracked lines (tests only).
func (d *Directory) Lines() int { return len(d.entries) }
