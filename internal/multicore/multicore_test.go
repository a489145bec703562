package multicore

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/workload"
)

func prof(name string) workload.MTProfile {
	for _, p := range workload.MTProfiles() {
		if p.Name == name {
			return p
		}
	}
	panic("unknown profile " + name)
}

func TestClassification(t *testing.T) {
	p := workload.MTProfile{Name: "t", Seed: 1}
	s := New(p, 4)
	line := arch.LineAddr(0x123)
	if got := s.Classify(0, line); got != SafeDRAM {
		t.Fatalf("cold line class %v, want SafeDRAM", got)
	}
	s.load(0, line)
	if got := s.Classify(0, line); got != SafeCache {
		t.Fatalf("resident line class %v, want SafeCache", got)
	}
	// Remote core: the first reader holds the line Exclusive, so a
	// remote read is unsafe (E downgrades are observable, Section 3.5).
	if got := s.Classify(1, line); got != UnsafeRemoteEM {
		t.Fatalf("remote-E line class %v, want Unsafe", got)
	}
	// Once two cores share it, a third reader is safe.
	s.load(1, line)
	if got := s.Classify(2, line); got != SafeCache {
		t.Fatalf("shared line class %v, want SafeCache", got)
	}
	// After a store by core 0, core 1 sees remote-M: unsafe.
	s.store(0, line)
	if got := s.Classify(1, line); got != UnsafeRemoteEM {
		t.Fatalf("remote-M line class %v, want Unsafe", got)
	}
	// Core 0 itself: safe.
	if got := s.Classify(0, line); got != SafeCache {
		t.Fatalf("own-M line class %v, want SafeCache", got)
	}
	// A load by core 1 downgrades; further loads are safe.
	s.load(1, line)
	if got := s.Classify(2, line); got != SafeCache {
		t.Fatalf("post-downgrade class %v, want SafeCache", got)
	}
}

func TestDirectoryInvariantsDuringRun(t *testing.T) {
	s := New(prof("dedup"), 4)
	for i := 0; i < 2000; i++ {
		s.Step()
		if i%100 == 0 {
			if err := s.Directory().Check(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
}

func TestUnsafeFractionTracksProfile(t *testing.T) {
	// Lock-heavy profiles must show more unsafe loads than
	// embarrassingly parallel ones, and the average should be small
	// (paper: 2.4% across the suite).
	heavy := New(prof("dedup"), 4).Run(20000)
	light := New(prof("swaptions"), 4).Run(20000)
	if heavy.UnsafeFrac() <= light.UnsafeFrac() {
		t.Fatalf("dedup unsafe %.4f <= swaptions %.4f", heavy.UnsafeFrac(), light.UnsafeFrac())
	}
	if heavy.UnsafeFrac() > 0.15 {
		t.Fatalf("dedup unsafe %.4f implausibly high", heavy.UnsafeFrac())
	}
	if light.UnsafeFrac() > 0.01 {
		t.Fatalf("swaptions unsafe %.4f should be near zero", light.UnsafeFrac())
	}
}

func TestSuiteAverageUnsafeNearPaper(t *testing.T) {
	// Figure 9: average unsafe share ~2.4%, with the suite mostly under
	// 10% per benchmark.
	sum := 0.0
	for _, p := range workload.MTProfiles() {
		st := New(p, 4).Run(8000)
		f := st.UnsafeFrac()
		if f > 0.12 {
			t.Errorf("%s unsafe %.3f out of plausible range", p.Name, f)
		}
		sum += f
	}
	avg := sum / float64(len(workload.MTProfiles()))
	if avg < 0.005 || avg > 0.06 {
		t.Errorf("suite average unsafe %.4f, paper reports ~0.024", avg)
	}
}

func TestFractionsSumToOne(t *testing.T) {
	st := New(prof("canneal"), 4).Run(5000)
	total := st.SafeCacheFrac() + st.SafeDRAMFrac() + st.UnsafeFrac()
	if total < 0.999 || total > 1.001 {
		t.Fatalf("fractions sum to %v", total)
	}
}

// TestLoadAgreesWithClassify drives seeded runs access by access, as Step
// does, and requires every load to return what Classify said just before
// it: load's single pass over the caches must classify exactly like the
// reference.
func TestLoadAgreesWithClassify(t *testing.T) {
	seen := map[LoadClass]int{}
	for _, p := range workload.MTProfiles() {
		s := New(p, 4)
		for i := 0; i < 1500; i++ {
			for c := 0; c < s.cores; c++ {
				line, isStore := s.pick(c)
				if isStore {
					s.store(c, line)
				}
				want := s.Classify(c, line)
				if got := s.load(c, line); got != want {
					t.Fatalf("%s step %d core %d line %v: load says %v, Classify said %v", p.Name, i, c, line, got, want)
				}
				seen[want]++
			}
			s.step++
		}
	}
	for _, c := range []LoadClass{SafeCache, SafeDRAM, UnsafeRemoteEM} {
		if seen[c] == 0 {
			t.Errorf("no %v load in the runs; the check did not cover that class", c)
		}
	}
}
