package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/sim"
)

// smallRunner keeps experiment tests fast.
func smallRunner() *Runner {
	r := NewRunner(Options{Instructions: 15_000, SpectreIterations: 4, MTSteps: 3_000})
	r.Quiet = true
	return r
}

func TestTable2MitigationsVerified(t *testing.T) {
	rep := smallRunner().Table2()
	s := rep.String()
	if strings.Contains(s, "NO") {
		t.Fatalf("a coherence mitigation failed verification:\n%s", s)
	}
}

func TestStorageReport(t *testing.T) {
	rep := smallRunner().Storage()
	if !strings.Contains(rep.String(), "800") {
		t.Fatalf("unexpected storage total:\n%s", rep)
	}
}

func TestByIDDispatch(t *testing.T) {
	r := smallRunner()
	for _, id := range []string{"table2", "storage"} {
		rep, err := r.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ID != id {
			t.Fatalf("ByID(%q) returned %q", id, rep.ID)
		}
	}
	if _, err := r.ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestMemoizationReusesRuns(t *testing.T) {
	r := smallRunner()
	r.run("gcc", "nonsecure", nil)
	sims := r.Engine.Simulations()
	r.run("gcc", "nonsecure", nil)
	if r.Engine.Simulations() != sims {
		t.Fatal("identical run not memoized")
	}
	r.run("gcc", "cleanupspec", nil)
	if r.Engine.Simulations() != sims+1 {
		t.Fatal("distinct run not simulated")
	}
}

// TestMemoKeyFromResolvedConfig pins the memo-key fix: two runs that
// differ only in their config-mod function (same workload, same policy)
// must never share a result, and a mod that leaves the config unchanged
// must still hit the memo.
func TestMemoKeyFromResolvedConfig(t *testing.T) {
	r := smallRunner()
	base := r.run("gcc", "nonsecure", nil)
	sims := r.Engine.Simulations()
	on := true
	modded := r.run("gcc", "nonsecure", func(c *sim.Config) { c.L1RandomRepl = &on })
	if r.Engine.Simulations() != sims+1 {
		t.Fatal("config-modifying run shared the unmodified run's memo entry")
	}
	if modded.Cycles == base.Cycles {
		t.Log("note: modded run happened to match base cycles (allowed, but suspicious)")
	}
	sims = r.Engine.Simulations()
	// A no-op mod resolves to the same config and must be a memo hit.
	r.run("gcc", "nonsecure", func(c *sim.Config) {})
	if r.Engine.Simulations() != sims {
		t.Fatal("no-op mod re-simulated instead of hitting the memo")
	}
}

// TestRunErrorDoesNotPanic pins the panic fix: an unknown workload must
// surface through Errors(), not kill the pass.
func TestRunErrorDoesNotPanic(t *testing.T) {
	r := smallRunner()
	res := r.run("no-such-workload", "nonsecure", nil)
	if res.Cycles != 0 {
		t.Fatalf("failed run returned a non-zero result: %+v", res)
	}
	if len(r.Errors()) != 1 {
		t.Fatalf("want 1 accumulated error, got %v", r.Errors())
	}
	if !strings.Contains(r.Errors()[0].Error(), "no-such-workload") {
		t.Fatalf("error does not name the workload: %v", r.Errors()[0])
	}
}

func TestFigure9ReportShape(t *testing.T) {
	rep := smallRunner().Figure9()
	md := rep.Markdown()
	if !strings.Contains(md, "dedup") || !strings.Contains(md, "AVG") {
		t.Fatalf("Figure 9 report missing rows:\n%s", md)
	}
}

func TestFigure11ReportVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("spectre runs")
	}
	rep := smallRunner().Figure11()
	s := rep.String()
	if !strings.Contains(s, "NonSecure: LEAKED") {
		t.Fatalf("non-secure PoC did not leak:\n%s", s)
	}
	if !strings.Contains(s, "CleanupSpec: no leak") {
		t.Fatalf("CleanupSpec PoC leaked:\n%s", s)
	}
}

func TestRendering(t *testing.T) {
	rep := smallRunner().Storage()
	if rep.String() == "" || rep.Markdown() == "" {
		t.Fatal("empty rendering")
	}
	if !strings.HasPrefix(rep.Markdown(), "## storage") {
		t.Fatalf("markdown header:\n%s", rep.Markdown())
	}
}

// TestAllExperimentsSmoke runs every experiment end to end at a tiny window
// — the whole-harness regression that catches panics and empty tables.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass")
	}
	r := NewRunner(Options{Instructions: 8_000, SpectreIterations: 3, MTSteps: 2_000})
	r.Quiet = true
	reports := r.All()
	if len(reports) != 15 {
		t.Fatalf("%d reports, want 15", len(reports))
	}
	for _, rep := range reports {
		if rep.ID == "" || rep.Title == "" {
			t.Errorf("report missing metadata: %+v", rep)
		}
		if len(rep.Tables) == 0 {
			t.Errorf("%s: no tables", rep.ID)
		}
		if rep.String() == "" || rep.Markdown() == "" {
			t.Errorf("%s: empty rendering", rep.ID)
		}
	}
	// The whole paper export at this size, pinned byte for byte. It was
	// recorded from the code before any change that must keep the export
	// identical; a refactor or speed-up never edits it. On a mismatch, diff
	// `paperbench -instructions 8000 -iterations 3 -mtsteps 2000 -q -csv F`
	// against the previous commit's output to find the moved table.
	const wantCSV = "05c9ffc36ae49aca542dd647e96ac6f4edab7288d86b897ef57392b61c665196"
	sum := sha256.Sum256([]byte(CSV(reports)))
	if got := hex.EncodeToString(sum[:]); got != wantCSV {
		t.Errorf("paper export CSV sha256 = %s, want %s", got, wantCSV)
	}
}
