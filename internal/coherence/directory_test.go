package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/xrand"
)

const line = arch.LineAddr(0x1000)

func TestFirstReaderGetsExclusive(t *testing.T) {
	d := NewDirectory(4)
	g := d.GetS(0, line)
	if g.State != arch.Exclusive || g.Source != SrcMemory || g.RemoteOwned {
		t.Fatalf("grant %+v", g)
	}
	if st := d.State(0, line); st != arch.Exclusive {
		t.Fatalf("state %v", st)
	}
}

func TestSecondReaderDowngradesOwner(t *testing.T) {
	d := NewDirectory(4)
	d.GetS(0, line)
	g := d.GetS(1, line)
	if g.State != arch.Shared || !g.RemoteOwned || g.Source != SrcRemote {
		t.Fatalf("grant %+v", g)
	}
	if g.Downgrades != 1<<0 {
		t.Fatalf("downgrades %b", g.Downgrades)
	}
	if d.State(0, line) != arch.Shared || d.State(1, line) != arch.Shared {
		t.Fatal("both cores must be S after downgrade")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestThirdReaderJustShares(t *testing.T) {
	d := NewDirectory(4)
	d.GetS(0, line)
	d.GetS(1, line)
	g := d.GetS(2, line)
	if g.State != arch.Shared || g.RemoteOwned || g.Downgrades != 0 {
		t.Fatalf("grant %+v", g)
	}
}

func TestGetXInvalidatesEveryone(t *testing.T) {
	d := NewDirectory(4)
	d.GetS(0, line)
	d.GetS(1, line)
	d.GetS(2, line)
	g := d.GetX(3, line)
	if g.State != arch.Modified {
		t.Fatalf("grant %+v", g)
	}
	if g.Invalidates != 0b0111 {
		t.Fatalf("invalidates %b", g.Invalidates)
	}
	for c := 0; c < 3; c++ {
		if d.State(c, line) != arch.Invalid {
			t.Fatalf("core %d not invalidated", c)
		}
	}
	if d.State(3, line) != arch.Modified {
		t.Fatal("writer must be M")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGetXOnRemoteModified(t *testing.T) {
	d := NewDirectory(2)
	d.GetX(0, line)
	g := d.GetX(1, line)
	if g.Invalidates != 1<<0 || !g.RemoteOwned {
		t.Fatalf("grant %+v", g)
	}
	if d.Stats.Writebacks != 1 {
		t.Fatalf("dirty transfer must count a writeback: %+v", d.Stats)
	}
}

func TestEvictAndGC(t *testing.T) {
	d := NewDirectory(2)
	d.GetS(0, line)
	d.GetS(1, line)
	d.Evict(0, line, false)
	if d.State(0, line) != arch.Invalid || d.State(1, line) != arch.Shared {
		t.Fatal("evict removed the wrong sharer")
	}
	d.Evict(1, line, false)
	if d.Lines() != 0 {
		t.Fatal("empty entry must be garbage collected")
	}
	// Dirty owner eviction counts a writeback.
	d.GetX(0, line)
	d.Evict(0, line, true)
	if d.Stats.Writebacks != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
	// Eviction of an untracked line is a no-op.
	d.Evict(0, arch.LineAddr(0x9999), false)
}

func TestFlushInvalidatesAllHolders(t *testing.T) {
	d := NewDirectory(4)
	d.GetS(0, line)
	d.GetS(1, line)
	holders := d.Flush(line)
	if holders != 0b0011 {
		t.Fatalf("holders %b", holders)
	}
	if d.Lines() != 0 {
		t.Fatal("flushed line must be untracked")
	}
	if d.Flush(line) != 0 {
		t.Fatal("double flush must hold no core")
	}
	// Flush of an M line counts the writeback.
	d.GetX(2, line)
	holders = d.Flush(line)
	if holders != 1<<2 {
		t.Fatalf("holders %b", holders)
	}
	if d.Stats.Writebacks != 1 {
		t.Fatalf("stats %+v", d.Stats)
	}
}

func TestDowngradeOfDirtyOwnerWritesBack(t *testing.T) {
	d := NewDirectory(2)
	d.GetX(0, line)
	d.GetS(1, line)
	if d.Stats.Writebacks != 1 {
		t.Fatalf("M->S downgrade must write back: %+v", d.Stats)
	}
}

func TestBadCorePanics(t *testing.T) {
	d := NewDirectory(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.GetS(2, line)
}

func TestBadCoreCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDirectory(65)
}

// Property: under any random sequence of GetS/GetX/Evict/Flush operations,
// the single-writer-multiple-reader invariant holds.
func TestProtocolInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := NewDirectory(4)
		lines := []arch.LineAddr{1, 2, 3}
		for i := 0; i < 300; i++ {
			core := r.Intn(4)
			l := lines[r.Intn(len(lines))]
			switch r.Intn(5) {
			case 0, 1:
				d.GetS(core, l)
			case 2:
				d.GetX(core, l)
			case 3:
				d.Evict(core, l, r.Bool(0.5))
			case 4:
				if r.Bool(0.2) {
					d.Flush(l)
				} else if d.RemoteOwner(core, l) < 0 {
					d.GetS(core, l) // the GetS-Safe memsys issues
				}
			}
			if err := d.Check(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
