package sim

import (
	"strings"
	"testing"
)

func TestWorkloadLists(t *testing.T) {
	if len(Workloads()) != 19 {
		t.Fatalf("%d workloads", len(Workloads()))
	}
	if len(MTWorkloads()) != 23 {
		t.Fatalf("%d MT workloads", len(MTWorkloads()))
	}
	if len(Policies()) != 7 {
		t.Fatalf("%d policies", len(Policies()))
	}
}

func TestUnknownNamesError(t *testing.T) {
	if _, err := RunWorkload("nope", Config{}); err == nil {
		t.Fatal("unknown workload must error")
	}
	if _, err := RunWorkload("astar", Config{Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy must error")
	}
	if _, err := RunMTWorkload("nope", 10); err == nil {
		t.Fatal("unknown MT workload must error")
	}
}

func TestRunWorkloadBasics(t *testing.T) {
	res, err := RunWorkload("astar", Config{Instructions: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions < 30_000 || res.Cycles == 0 || res.IPC <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.MispredictRate <= 0 || res.SquashPKI <= 0 {
		t.Fatalf("astar must mispredict: %+v", res)
	}
}

func TestCleanupSpecSlowdownIsModest(t *testing.T) {
	const n = 60_000
	base, err := RunWorkload("astar", Config{Policy: NonSecure, Instructions: n})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := RunWorkload("astar", Config{Policy: CleanupSpec, Instructions: n})
	if err != nil {
		t.Fatal(err)
	}
	slow := float64(cs.Cycles)/float64(base.Cycles) - 1
	// The paper reports 24% for astar (its worst case); anything between
	// 0 and 60% is a sane shape for the synthetic stand-in.
	if slow < -0.05 || slow > 0.6 {
		t.Fatalf("astar CleanupSpec slowdown %.1f%% out of plausible range", slow*100)
	}
}

func TestPolicyOrderingAcrossSuite(t *testing.T) {
	// Table 6's headline ordering holds on suite averages, not on every
	// workload (the paper's CleanupSpec worst case, astar at 24%,
	// exceeds InvisiSpec-Revised's 15% average too). Average the
	// slowdowns over a representative mix: mispredict-heavy (gobmk),
	// miss-heavy (libq, lbm), and mixed (sphinx3, soplex).
	const n = 50_000
	wls := []string{"gobmk", "sphinx3", "soplex", "lbm", "libq"}
	avg := func(p Policy) float64 {
		sum := 0.0
		for _, w := range wls {
			base, err := RunWorkload(w, Config{Policy: NonSecure, Instructions: n})
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			res, err := RunWorkload(w, Config{Policy: p, Instructions: n})
			if err != nil {
				t.Fatalf("%s/%s: %v", w, p, err)
			}
			sum += float64(res.Cycles)/float64(base.Cycles) - 1
		}
		return sum / float64(len(wls))
	}
	cs := avg(CleanupSpec)
	revised := avg(InvisiSpecRevised)
	initial := avg(InvisiSpecInitial)
	if cs < -0.01 {
		t.Errorf("CleanupSpec average speedup %.1f%% is implausible", cs*100)
	}
	if revised <= cs {
		t.Errorf("InvisiSpec-Revised avg (%.1f%%) not slower than CleanupSpec (%.1f%%)",
			revised*100, cs*100)
	}
	if initial <= revised {
		t.Errorf("InvisiSpec-Initial avg (%.1f%%) not slower than Revised (%.1f%%)",
			initial*100, revised*100)
	}
}

func TestRandomizationOverrides(t *testing.T) {
	on := true
	res, err := RunWorkload("gcc", Config{Instructions: 20_000, L1RandomRepl: &on, RandomizeL2: &on})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestRunSpectreFacade(t *testing.T) {
	res, err := RunSpectre(NonSecure, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaked {
		t.Fatal("facade spectre run should leak on nonsecure")
	}
	res, err = RunSpectre(CleanupSpec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaked {
		t.Fatal("facade spectre run must not leak under cleanupspec")
	}
}

func TestRunMTWorkloadFacade(t *testing.T) {
	res, err := RunMTWorkload("dedup", 5_000)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.UnsafeFrac + res.SafeCacheFrac + res.SafeDRAMFrac
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum %v", sum)
	}
}

func TestStorageOverhead(t *testing.T) {
	if b := StorageOverheadBytes(); b <= 0 || b >= 1024 {
		t.Fatalf("storage overhead %d bytes, want <1KB (Section 6.6)", b)
	}
}

func TestCustomProgram(t *testing.T) {
	b := NewProgram("custom")
	b.Li(1, 21)
	b.AluI(2, 1, 1, 0) // placeholder; replaced below
	_ = b
	// Build a real tiny program through the builder API.
	pb := NewProgram("double")
	pb.Li(1, 21)
	pb.Add(2, 1, 1)
	pb.Halt()
	res, err := RunProgram("double", pb.Build(), Config{Instructions: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 3 {
		t.Fatalf("committed %d", res.Instructions)
	}
}

func TestTraceKnob(t *testing.T) {
	ring := NewTraceRing(128)
	_, err := RunWorkload("gcc", Config{Instructions: 5_000, Trace: ring, NoWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("trace captured nothing")
	}
}

func TestNewBaselinePolicies(t *testing.T) {
	for _, p := range []Policy{DelayOnMiss, ValuePredict} {
		res, err := RunWorkload("gcc", Config{Policy: p, Instructions: 10_000})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Cycles == 0 {
			t.Fatalf("%s: no cycles", p)
		}
	}
}

// TestConfigKnobsChecked pins the knobs buildPolicy rejects against the
// resolved policy and hierarchy: each would otherwise panic in cache.New
// or be silently dropped. The variants the ablations and digest cells use
// must still run.
func TestConfigKnobsChecked(t *testing.T) {
	off := false
	on := true
	cases := []struct {
		name  string
		cfg   Config
		field string // "" when the config must run
	}{
		{"partition 3 of 8 ways", Config{Policy: CleanupSpec, L1PartitionWays: 3}, "L1PartitionWays"},
		{"partition 16 of 8 ways", Config{Policy: CleanupSpec, L1PartitionWays: 16}, "L1PartitionWays"},
		{"negative partition", Config{Policy: CleanupSpec, L1PartitionWays: -1}, "L1PartitionWays"},
		{"remap on the nonsecure modulo L2", Config{Policy: NonSecure, L2RemapEvery: 64}, "L2RemapEvery"},
		{"remap with RandomizeL2 off", Config{Policy: CleanupSpec, RandomizeL2: &off, L2RemapEvery: 64}, "L2RemapEvery"},
		{"DisableRestore under nonsecure", Config{Policy: NonSecure, DisableRestore: true}, "DisableRestore"},
		{"ConstantTimeCleanup under nonsecure", Config{Policy: NonSecure, ConstantTimeCleanup: 50}, "ConstantTimeCleanup"},
		{"ConstantTimeCleanup under delay-all", Config{Policy: DelayAll, ConstantTimeCleanup: 50}, "ConstantTimeCleanup"},

		{"ablation constant-time cleanup", Config{Policy: CleanupSpec, ConstantTimeCleanup: 50}, ""},
		{"ablation and digest NoMo partition", Config{Policy: CleanupSpec, L1PartitionWays: 4}, ""},
		{"ablation CEASER remap", Config{Policy: CleanupSpec, L2RemapEvery: 100}, ""},
		{"digest CEASER remap", Config{Policy: CleanupSpec, L2RemapEvery: 64}, ""},
		{"ablation no restore", Config{Policy: CleanupSpec, DisableRestore: true}, ""},
		{"remap on a randomized nonsecure L2", Config{Policy: NonSecure, RandomizeL2: &on, L2RemapEvery: 64}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Instructions = 1_000
			cfg.NoWarmup = true
			_, err := RunWorkload("astar", cfg)
			switch {
			case c.field == "" && err != nil:
				t.Errorf("valid config rejected: %v", err)
			case c.field != "" && err == nil:
				t.Errorf("accepted; want an error naming %s", c.field)
			case c.field != "" && !strings.Contains(err.Error(), c.field):
				t.Errorf("error %q does not name %s", err, c.field)
			}
		})
	}
}
