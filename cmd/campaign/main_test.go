package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/sim"
)

// TestViewsNeedAnExistingCache points the read-only views at a mistyped
// cache path: each must fail with "no cache at", and none may leave the
// directory behind.
func TestViewsNeedAnExistingCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	views := []struct {
		name string
		run  func([]string) error
	}{{"inspect", cmdInspect}, {"export", cmdExport}}
	for _, v := range views {
		err := v.run([]string{"-cache", dir})
		if err == nil || !strings.Contains(err.Error(), "no cache at "+dir) {
			t.Errorf("%s: err = %v, want \"no cache at %s\"", v.name, err, dir)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s created the missing cache directory (stat: %v)", v.name, err)
		}
	}
}

// TestViewsRefuseADamagedCache edits one entry of a two-entry cache: both
// read-only views must fail naming the damaged count and the repair,
// instead of showing the one intact cell as if it were the whole cache,
// and export must write no partial CSV.
func TestViewsRefuseADamagedCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var damaged string
	for _, wl := range []string{"astar", "gcc"} {
		job := campaign.Job{Workload: wl, Config: sim.Config{Policy: sim.NonSecure}}
		if err := cache.Put(job, sim.Result{Workload: wl, Policy: sim.NonSecure, Cycles: 800, Instructions: 1000, IPC: 1.25}, nil); err != nil {
			t.Fatal(err)
		}
		key, err := job.Key()
		if err != nil {
			t.Fatal(err)
		}
		damaged = filepath.Join(dir, key[:2], key+".json")
	}
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), "1.25")
	if i < 0 {
		t.Fatal("IPC not found in entry JSON")
	}
	data[i+2] = '7' // 1.25 -> 1.75: still valid JSON, wrong checksum
	if err := os.WriteFile(damaged, data, 0o644); err != nil {
		t.Fatal(err)
	}

	csv := filepath.Join(t.TempDir(), "out.csv")
	views := []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"export", cmdExport, []string{"-cache", dir, "-csv", csv}},
		{"inspect", cmdInspect, []string{"-cache", dir}},
	}
	for _, v := range views {
		err := v.run(v.args)
		if err == nil || !strings.Contains(err.Error(), "1 damaged") || !strings.Contains(err.Error(), "fsck -prune") {
			t.Errorf("%s: err = %v, want one naming \"1 damaged\" and \"fsck -prune\"", v.name, err)
		}
	}
	if _, err := os.Stat(csv); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("export wrote a partial CSV (stat: %v)", err)
	}
}

// TestRunRejectsUnknownPolicy: a mistyped -policies name must fail the
// run before any cell simulates, like a mistyped -workloads name, instead
// of journaling failed cells that can never succeed.
func TestRunRejectsUnknownPolicy(t *testing.T) {
	_, _, err := resolveGrid("quick", "", "nonsecure,bogus", "", 0)
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("err = %v, want one naming \"bogus\"", err)
	}
}

// TestResolveGridFoldsRepeats: a name or seed given twice is one cell, not
// two jobs that simulate the same cell and weigh it double in the summary.
func TestResolveGridFoldsRepeats(t *testing.T) {
	_, jobs, err := resolveGrid("quick", "astar,astar", "nonsecure,nonsecure", "1,1", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d jobs, want 1", len(jobs))
	}
}

// runCLI runs one subcommand with os.Stdout and os.Stderr captured.
func runCLI(t *testing.T, cmd func([]string) error, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i, name := range []string{"stdout", "stderr"} {
		if files[i], err = os.Create(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	saved := [2]*os.File{os.Stdout, os.Stderr}
	os.Stdout, os.Stderr = files[0], files[1]
	err = cmd(args)
	os.Stdout, os.Stderr = saved[0], saved[1]
	var out [2]string
	for i, f := range files {
		f.Close()
		data, rerr := os.ReadFile(f.Name())
		if rerr != nil {
			t.Fatal(rerr)
		}
		out[i] = string(data)
	}
	return out[0], out[1], err
}

// TestRunRecordsItsStatus: `campaign run` writes its status when it
// finishes, `campaign status` shows it, and the next run removes it before
// its pool starts and writes its own. A run whose status cannot be written
// warns and still succeeds, and a rerun serves every cell from the cache.
func TestRunRecordsItsStatus(t *testing.T) {
	dir := t.TempDir()
	run := func(cache string) []string {
		return []string{"-grid", "quick", "-workloads", "astar,gcc", "-policies", "nonsecure",
			"-instructions", "2000", "-cache", cache}
	}
	if _, stderr, err := runCLI(t, cmdRun, run(dir)...); err != nil {
		t.Fatalf("campaign run: %v\n%s", err, stderr)
	}
	out, _, err := runCLI(t, cmdStatus, "-cache", dir, "-v")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`campaign "quick" at ` + dir + ": 2 done, 0 failed\n", "0 cache hit(s), 2 simulated", "cache: 2 result file(s)", "astar/nonsecure", "gcc/nonsecure"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign status -v does not say %q:\n%s", want, out)
		}
	}

	eng := campaign.NewEngine()
	if eng.Cache, err = campaign.OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	var during error
	eng.RegisterCell("probe", func(campaign.Job) (sim.Result, json.RawMessage, error) {
		_, during = os.Stat(campaign.StatusPath(dir))
		return sim.Result{IPC: 1}, nil, nil
	})
	runRecorded(eng, "probe", []campaign.Job{{Workload: "astar", Kind: "probe"}})
	if !errors.Is(during, fs.ErrNotExist) {
		t.Errorf("the last run's status was still there while the pool ran (stat: %v)", during)
	}
	if st, err := campaign.LoadStatus(dir); err != nil || st.Grid != "probe" || len(st.Jobs) != 1 {
		t.Fatalf("status after the second run: %+v (%v), want grid \"probe\" with 1 row", st, err)
	}

	// A directory that is not empty where the status goes can be neither
	// removed nor replaced.
	blocked := t.TempDir()
	if err := os.MkdirAll(filepath.Join(campaign.StatusPath(blocked), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, stderr, err := runCLI(t, cmdRun, run(blocked)...)
	if err != nil {
		t.Fatalf("a run whose status cannot be written failed: %v", err)
	}
	if !strings.Contains(stderr, "warning: writing run status") {
		t.Errorf("no warning that the status was not written:\n%s", stderr)
	}
	if _, stderr, err = runCLI(t, cmdRun, run(blocked)...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "(2 cached, 0 simulated, 0 failed)") {
		t.Errorf("the rerun did not serve both cells from the cache:\n%s", stderr)
	}
}
