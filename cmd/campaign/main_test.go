package main

import (
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
