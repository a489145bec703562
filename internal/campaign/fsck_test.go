package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFsck damages a warm cache in every way Fsck classifies — a flipped
// byte, a misfiled entry, an orphaned temp file — and checks the scan
// finds exactly that damage, prune removes it, and a re-scan comes back
// clean.
func TestFsck(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()[:4]
	eng := NewEngine()
	eng.Workers = 1
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	if n := len(Failed(eng.Run(jobs))); n != 0 {
		t.Fatalf("%d jobs failed in setup run", n)
	}

	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.OK != len(jobs) || rep.Scanned != len(jobs) {
		t.Fatalf("fresh cache not clean: %s", rep)
	}

	// Damage 1: change one digit of the first entry's cycle count: still
	// valid JSON, wrong data.
	k0 := mustKey(t, jobs[0])
	p0 := filepath.Join(dir, k0[:2], k0+".json")
	rotCycles(t, p0)

	// Damage 2: refile the second entry under the wrong key.
	k1 := mustKey(t, jobs[1])
	p1 := filepath.Join(dir, k1[:2], k1+".json")
	wrong := filepath.Join(dir, k1[:2], "0000000000000000.json")
	if err := os.Rename(p1, wrong); err != nil {
		t.Fatal(err)
	}

	// Damage 3: an orphaned temp file from an interrupted atomic write.
	orphan := filepath.Join(dir, k0[:2], "."+k0+".tmp-12345")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed the damage")
	}
	if len(rep.Corrupt) != 2 {
		t.Fatalf("corrupt = %+v, want the flipped and the misfiled entry", rep.Corrupt)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0].Path != orphan {
		t.Fatalf("orphans = %+v", rep.Orphans)
	}
	reasons := map[string]string{}
	for _, f := range rep.Corrupt {
		reasons[f.Path] = f.Reason
	}
	if !strings.Contains(reasons[p0], "checksum") {
		t.Fatalf("flipped entry classified as %q", reasons[p0])
	}
	if !strings.Contains(reasons[wrong], "misfiled") {
		t.Fatalf("misfiled entry classified as %q", reasons[wrong])
	}
	if rep.OK != len(jobs)-2 {
		t.Fatalf("ok = %d, want the %d untouched entries", rep.OK, len(jobs)-2)
	}

	// Prune removes exactly the damage; a re-scan is clean and the
	// surviving entries are untouched.
	rep, err = Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pruned) != 3 {
		t.Fatalf("pruned %d files, want 3: %v", len(rep.Pruned), rep.Pruned)
	}
	rep, err = Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.OK != len(jobs)-2 {
		t.Fatalf("cache dirty after prune: %s", rep)
	}

	// The pruned cells simply re-simulate on the next run.
	again := NewEngine()
	again.Cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Failed(again.Run(jobs))); n != 0 {
		t.Fatalf("%d jobs failed after prune", n)
	}
	if got := again.Simulations(); got != 2 {
		t.Fatalf("post-prune run simulated %d cells, want the 2 pruned ones", got)
	}
}
