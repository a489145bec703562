package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotReportDeterministic requires the budget JSON to be byte-identical
// across worker counts and repeated runs — the contract that lets CI diff
// the emitted report against the committed HOTPATH_BUDGET.json.
func TestHotReportDeterministic(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 16} {
		mod, err := Load(filepath.Join("testdata", "src"))
		if err != nil {
			t.Fatalf("load testdata module: %v", err)
		}
		r := NewRunner(mod)
		r.Workers = workers
		blob, err := r.HotReport().MarshalIndent()
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		if ref == nil {
			ref = blob
			continue
		}
		if !bytes.Equal(blob, ref) {
			t.Errorf("workers=%d: report differs from workers=1:\n%s\nvs\n%s", workers, blob, ref)
		}
	}
}

// TestHotReportTestdataBudget pins the golden module's budget: suppressed
// sites count (the budget tracks what the code does, not what directives
// excuse), the splice idiom is proven free, and cold code contributes
// nothing.
func TestHotReportTestdataBudget(t *testing.T) {
	mod, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("load testdata module: %v", err)
	}
	rep := NewRunner(mod).HotReport()

	wantRoots := []string{"internal/hotpath.Step"}
	if !sameStrings(rep.Roots, wantRoots) {
		t.Fatalf("roots = %v, want %v", rep.Roots, wantRoots)
	}

	byFn := make(map[string]HotFnCost, len(rep.Functions))
	for _, fc := range rep.Functions {
		byFn[fc.Fn] = fc
	}
	step, ok := byFn["internal/hotpath.Step"]
	if !ok {
		t.Fatal("no budget entry for internal/hotpath.Step")
	}
	// append + box + closure + the directive-suppressed make.
	for kind, n := range map[string]int{"append": 1, "box": 1, "closure": 1, "make": 1} {
		if step.Sites[kind] != n {
			t.Errorf("Step %s sites = %d, want %d", kind, step.Sites[kind], n)
		}
	}
	helper, ok := byFn["internal/hotpath.helper"]
	if !ok || helper.Sites["append"] != 1 {
		t.Errorf("helper budget = %+v, want one append site", helper)
	}
	// Generic code is reached through its declared function: a method of
	// a generic type, and a function called with explicit type arguments.
	push, ok := byFn["internal/hotpath.queue.push"]
	if !ok || push.Sites["append"] != 1 {
		t.Errorf("queue.push budget = %+v, want one append site", push)
	}
	grow, ok := byFn["internal/hotpath.grow"]
	if !ok || grow.Sites["make"] != 1 {
		t.Errorf("grow budget = %+v, want one make site", grow)
	}
	// remove's splice is proven in place; Cold is unreachable.
	for _, fn := range []string{"internal/hotpath.remove", "internal/hotpath.Cold"} {
		if fc, ok := byFn[fn]; ok {
			t.Errorf("%s has a budget entry (%+v), want none", fn, fc)
		}
	}
	if want := step.Total + helper.Total + push.Total + grow.Total; rep.Total != want {
		t.Errorf("total = %d, want %d (Step %d + helper %d + queue.push %d + grow %d)",
			rep.Total, want, step.Total, helper.Total, push.Total, grow.Total)
	}
}

// TestCompareHotBudget pins the ratchet semantics: growth in any form is a
// violation, shrinkage never is.
func TestCompareHotBudget(t *testing.T) {
	budget := &HotReport{
		Schema: HotReportSchema,
		Roots:  []string{"internal/cpu.Machine.Step"},
		Total:  3,
		Functions: []HotFnCost{
			{Fn: "internal/cpu.Machine.Step", Total: 2, Sites: map[string]int{"append": 1, "box": 1}},
			{Fn: "internal/cache.Cache.Lookup", Total: 1, Sites: map[string]int{"make": 1}},
		},
	}
	cases := []struct {
		name    string
		current *HotReport
		want    []string // substrings, one per expected violation
	}{
		{
			name:    "identical",
			current: budget,
		},
		{
			name: "shrinkage is never a violation",
			current: &HotReport{
				Schema: HotReportSchema,
				Roots:  []string{"internal/cpu.Machine.Step"},
				Total:  1,
				Functions: []HotFnCost{
					{Fn: "internal/cpu.Machine.Step", Total: 1, Sites: map[string]int{"append": 1}},
				},
			},
		},
		{
			name: "new function entered the hot region",
			current: &HotReport{
				Schema: HotReportSchema,
				Roots:  []string{"internal/cpu.Machine.Step"},
				Total:  3,
				Functions: []HotFnCost{
					{Fn: "internal/cpu.Machine.Step", Total: 1, Sites: map[string]int{"append": 1}},
					{Fn: "internal/cache.Cache.Lookup", Total: 1, Sites: map[string]int{"make": 1}},
					{Fn: "internal/memsys.NewTxn", Total: 1, Sites: map[string]int{"lit": 1}},
				},
			},
			want: []string{"internal/memsys.NewTxn has 1 allocation site(s) but no budget entry"},
		},
		{
			name: "per-kind growth trips even when another kind shrinks",
			current: &HotReport{
				Schema: HotReportSchema,
				Roots:  []string{"internal/cpu.Machine.Step"},
				Total:  3,
				Functions: []HotFnCost{
					{Fn: "internal/cpu.Machine.Step", Total: 2, Sites: map[string]int{"closure": 2}},
					{Fn: "internal/cache.Cache.Lookup", Total: 1, Sites: map[string]int{"make": 1}},
				},
			},
			want: []string{"internal/cpu.Machine.Step grew closure sites 0 -> 2"},
		},
		{
			name: "total growth",
			current: &HotReport{
				Schema: HotReportSchema,
				Roots:  []string{"internal/cpu.Machine.Step"},
				Total:  4,
				Functions: []HotFnCost{
					{Fn: "internal/cpu.Machine.Step", Total: 3, Sites: map[string]int{"append": 2, "box": 1}},
					{Fn: "internal/cache.Cache.Lookup", Total: 1, Sites: map[string]int{"make": 1}},
				},
			},
			want: []string{
				"internal/cpu.Machine.Step grew append sites 1 -> 2",
				"total allocation sites grew 3 -> 4",
			},
		},
		{
			name: "root set drift",
			current: &HotReport{
				Schema: HotReportSchema,
				Roots:  []string{"internal/cpu.Machine.Step", "internal/cache.Cache.Tick"},
				Total:  3,
				Functions: []HotFnCost{
					{Fn: "internal/cpu.Machine.Step", Total: 2, Sites: map[string]int{"append": 1, "box": 1}},
					{Fn: "internal/cache.Cache.Lookup", Total: 1, Sites: map[string]int{"make": 1}},
				},
			},
			want: []string{"root set changed"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := CompareHotBudget(budget, c.current)
			if len(got) != len(c.want) {
				t.Fatalf("%d violation(s) %v, want %d", len(got), got, len(c.want))
			}
			for i, sub := range c.want {
				if !strings.Contains(got[i], sub) {
					t.Errorf("violation %d = %q, want it to contain %q", i, got[i], sub)
				}
			}
		})
	}
}

// TestParseHotReport covers the round trip and the schema guard.
func TestParseHotReport(t *testing.T) {
	rep := &HotReport{
		Schema: HotReportSchema,
		Roots:  []string{"internal/cpu.Machine.Step"},
		Total:  1,
		Functions: []HotFnCost{
			{Fn: "internal/cpu.Machine.Step", Total: 1, Sites: map[string]int{"box": 1}},
		},
	}
	blob, err := rep.MarshalIndent()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := ParseHotReport(blob)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if violations := CompareHotBudget(rep, back); len(violations) != 0 {
		t.Errorf("round trip is not a fixed point: %v", violations)
	}
	if _, err := ParseHotReport([]byte(`{"schema": 99}`)); err == nil || !strings.Contains(err.Error(), "schema 99") {
		t.Errorf("schema mismatch error = %v, want it to name schema 99", err)
	}
	if _, err := ParseHotReport([]byte(`{`)); err == nil {
		t.Error("truncated JSON parsed without error")
	}
}

// TestRepoHotBudgetClean holds the committed HOTPATH_BUDGET.json to the
// real module: the same check CI runs via simlint -hotbudget, so a budget
// regression fails locally before it fails the pipeline.
func TestRepoHotBudgetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	blob, err := os.ReadFile(filepath.Join("..", "..", "HOTPATH_BUDGET.json"))
	if err != nil {
		t.Fatalf("read committed budget: %v", err)
	}
	budget, err := ParseHotReport(blob)
	if err != nil {
		t.Fatalf("parse committed budget: %v", err)
	}
	mod, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("load repo module: %v", err)
	}
	for _, v := range CompareHotBudget(budget, NewRunner(mod).HotReport()) {
		t.Errorf("committed budget stale: %s", v)
	}
}
