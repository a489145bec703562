package ceaser

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	ix := New(2048, 42)
	f := func(raw uint64) bool {
		v := raw & ((1 << arch.LineAddrBits) - 1)
		return ix.Decrypt(ix.Encrypt(arch.LineAddr(v))) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBijectionOnDenseRange(t *testing.T) {
	ix := New(64, 7)
	seen := make(map[uint64]arch.LineAddr)
	for i := arch.LineAddr(0); i < 1<<16; i++ {
		e := ix.Encrypt(i)
		if prev, dup := seen[e]; dup {
			t.Fatalf("collision: Encrypt(%v) == Encrypt(%v) == %#x", i, prev, e)
		}
		seen[e] = i
	}
}

func TestSetIndexInRange(t *testing.T) {
	ix := New(2048, 3)
	for i := arch.LineAddr(0); i < 10000; i++ {
		if s := ix.SetIndex(i * 131); s < 0 || s >= 2048 {
			t.Fatalf("SetIndex out of range: %d", s)
		}
	}
}

func TestSpatialDecorrelation(t *testing.T) {
	// Consecutive lines (which share a set-region under modulo indexing
	// in chunks) must be spread near-uniformly across sets.
	const sets = 256
	ix := New(sets, 11)
	counts := make([]int, sets)
	const n = sets * 64
	for i := 0; i < n; i++ {
		counts[ix.SetIndex(arch.LineAddr(i))]++
	}
	// Chi-squared-ish sanity: no set wildly over/under-loaded.
	mean := float64(n) / sets
	for s, c := range counts {
		if math.Abs(float64(c)-mean) > mean {
			t.Fatalf("set %d has %d lines, mean %.1f — not decorrelated", s, c, mean)
		}
	}
	// And consecutive lines must not land in consecutive sets.
	adjacent := 0
	for i := 0; i < 1000; i++ {
		if ix.SetIndex(arch.LineAddr(i+1)) == (ix.SetIndex(arch.LineAddr(i))+1)%sets {
			adjacent++
		}
	}
	if adjacent > 50 {
		t.Fatalf("%d/1000 consecutive lines map to consecutive sets", adjacent)
	}
}

func TestDifferentSeedsDifferentMappings(t *testing.T) {
	a, b := New(1024, 1), New(1024, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.SetIndex(arch.LineAddr(i)) == b.SetIndex(arch.LineAddr(i)) {
			same++
		}
	}
	// Expect ~1000/1024 random agreement rate, i.e. very few.
	if same > 30 {
		t.Fatalf("%d/1000 identical set mappings across seeds", same)
	}
}

func TestInterfaceValues(t *testing.T) {
	ix := New(16, 1)
	if ix.Sets() != 16 || ix.ExtraLatency() != 2 {
		t.Fatalf("interface metadata wrong: %d %d", ix.Sets(), ix.ExtraLatency())
	}
}
