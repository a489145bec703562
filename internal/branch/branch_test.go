package branch

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/xrand"
)

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New()
	pc := arch.Addr(100)
	wrong := 0
	for i := 0; i < 200; i++ {
		ps := p.Predict(pc)
		if !ps.Taken {
			wrong++
		}
		p.Update(ps, true)
	}
	// Warmup costs up to one miss per fresh local-history pattern.
	if wrong > 15 {
		t.Fatalf("%d mispredicts on an always-taken branch", wrong)
	}
	// Once warm, it must be perfect.
	for i := 0; i < 50; i++ {
		ps := p.Predict(pc)
		if !ps.Taken {
			t.Fatal("warm always-taken branch mispredicted")
		}
		p.Update(ps, true)
	}
}

func TestLearnsAlternatingViaHistory(t *testing.T) {
	// A strict T/N/T/N pattern is perfectly predictable with history.
	p := New()
	pc := arch.Addr(7)
	wrong := 0
	for i := 0; i < 2000; i++ {
		actual := i%2 == 0
		ps := p.Predict(pc)
		if ps.Taken != actual {
			wrong++
		}
		p.Update(ps, actual)
	}
	if float64(wrong)/2000 > 0.10 {
		t.Fatalf("alternating pattern mispredict rate %d/2000", wrong)
	}
}

func TestRandomBranchNearFiftyPercent(t *testing.T) {
	p := New()
	r := xrand.New(5)
	pc := arch.Addr(9)
	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		actual := r.Bool(0.5)
		ps := p.Predict(pc)
		if ps.Taken != actual {
			wrong++
		}
		p.Update(ps, actual)
	}
	rate := float64(wrong) / n
	if rate < 0.40 || rate > 0.60 {
		t.Fatalf("random-branch mispredict rate %.3f, want ~0.5", rate)
	}
}

func TestCheckpointRestore(t *testing.T) {
	p := New()
	p.Predict(arch.Addr(1)) // advance GHR
	snap := p.Checkpoint()
	ghr := p.ghr
	// Wrong-path activity: predictions and RAS churn.
	p.Predict(arch.Addr(2))
	p.Predict(arch.Addr(3))
	p.Push(arch.Addr(55))
	p.Restore(snap)
	if p.ghr != ghr {
		t.Fatalf("GHR not restored: %b vs %b", p.ghr, ghr)
	}
	if p.rasSP != snap.RASsp {
		t.Fatal("RAS SP not restored")
	}
}

func TestRASCallReturnPairs(t *testing.T) {
	p := New()
	p.Push(10)
	p.Push(20)
	if got := p.Pop(); got != 20 {
		t.Fatalf("Pop = %d, want 20", got)
	}
	if got := p.Pop(); got != 10 {
		t.Fatalf("Pop = %d, want 10", got)
	}
}

func TestRASRestoreAfterWrongPathPop(t *testing.T) {
	p := New()
	p.Push(10)
	snap := p.Checkpoint()
	// Wrong path pops the entry.
	if p.Pop() != 10 {
		t.Fatal("setup")
	}
	p.Restore(snap)
	if got := p.Pop(); got != 10 {
		t.Fatalf("after restore Pop = %d, want 10", got)
	}
}

// TestRASRestoreAfterTwoWrongPathPops: a wrong path that pops below the
// checkpoint's top entry must not cost the correct path its deeper
// return addresses once Restore rewinds the stack.
func TestRASRestoreAfterTwoWrongPathPops(t *testing.T) {
	p := New()
	p.Push(10)
	p.Push(20)
	snap := p.Checkpoint()
	p.Pop()
	p.Pop()
	p.Restore(snap)
	for _, want := range []arch.Addr{20, 10} {
		if got := p.Pop(); got != want {
			t.Fatalf("after restore Pop = %d, want %d", got, want)
		}
	}
}

func TestGHRShiftAfterRestore(t *testing.T) {
	p := New()
	snap := p.Checkpoint()
	p.Restore(snap)
	p.ShiftGHR(true)
	if p.ghr&1 != 1 {
		t.Fatal("ShiftGHR(true) must set low bit")
	}
	p.ShiftGHR(false)
	if p.ghr&1 != 0 {
		t.Fatal("ShiftGHR(false) must clear low bit")
	}
}
