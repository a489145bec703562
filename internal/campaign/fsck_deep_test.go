package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFsckDeep desynchronizes a warm cache's manifest journal from its
// entry store — a done row whose entry vanished, and an entry whose
// journal row was lost — and checks the deep scan reports the first as
// drift and keeps the second (the next run serves and journals it), a
// shallow scan stays blind to both, and prune restores agreement.
func TestFsckDeep(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()[:4]
	eng := NewEngine()
	eng.Workers = 1
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	eng.Manifest = NewManifest(dir, "test")
	if n := len(Failed(eng.Run(jobs))); n != 0 {
		t.Fatalf("%d jobs failed in setup run", n)
	}

	rep, err := Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || !rep.Deep {
		t.Fatalf("fresh cache not deep-clean: %s", rep)
	}

	// Drift 1: delete the first entry out from under its done row (a lost
	// cache.Put, or a prune the journal never heard about).
	k0 := mustKey(t, jobs[0])
	if err := os.Remove(filepath.Join(dir, k0[:2], k0+".json")); err != nil {
		t.Fatal(err)
	}

	// Drift 2: strip the second job's row from the journal while its entry
	// stays (a crash between cache.Put and Manifest.Append).
	k1 := mustKey(t, jobs[1])
	dropJournalRow(t, dir, k1)

	// A shallow scan sees nothing: every remaining file is intact.
	rep, err = Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("shallow scan should not see journal drift: %s", rep)
	}

	// The deep scan sees the done row without an entry, and nothing else.
	rep, err = Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("deep scan missed the drift")
	}
	if len(rep.MissingData) != 1 || rep.MissingData[0].Path != k0 {
		t.Fatalf("missing-data = %+v, want the deleted entry's row %s", rep.MissingData, k0)
	}

	// Prune demotes the stale done row to pending and keeps the rowless
	// entry; a deep re-scan agrees.
	rep, err = Fsck(dir, FsckOptions{Deep: true, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pruned) != 1 || rep.Pruned[0] != "journal:"+k0 {
		t.Fatalf("pruned %v, want only the journal row of %s", rep.Pruned, k0)
	}
	rep, err = Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.OK != len(jobs)-1 {
		t.Fatalf("cache after prune: %s; want clean with %d entries", rep, len(jobs)-1)
	}
	m, ok := LoadManifest(dir)
	if !ok {
		t.Fatal("manifest unreadable after prune")
	}
	if rec := m.Jobs[k0]; rec == nil || rec.Status != StatusPending {
		t.Fatalf("demoted row = %+v, want status pending", m.Jobs[k0])
	}

	// Resume heals the drift: only the cell whose entry was lost
	// re-simulates; the rowless entry is served and journaled.
	again := NewEngine()
	again.Cache, err = OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Grid = "test"
	again.Manifest = m
	if n := len(Failed(again.Run(jobs))); n != 0 {
		t.Fatalf("%d jobs failed after prune", n)
	}
	if got := again.Simulations(); got != 1 {
		t.Fatalf("post-prune run simulated %d cells, want the 1 whose entry was lost", got)
	}
	if rec := m.Jobs[k1]; rec == nil || rec.Status != StatusDone || !rec.Cached {
		t.Fatalf("rowless entry's cell journaled as %+v, want done from the cache", rec)
	}
	rep, err = Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("cache not deep-clean after healing run: %s", rep)
	}
}

// TestFsckDeepKeepsJournallessCells shares one cache between a campaign
// with a journal and an engine without one, as `paperbench -cache` does:
// the entries without journal rows are valid cells, so a deep, pruning
// fsck must find nothing and delete nothing.
func TestFsckDeepKeepsJournallessCells(t *testing.T) {
	dir := t.TempDir()
	jobs := smallGrid().Jobs()[:4]
	for i, manifest := range []bool{true, false} {
		eng := NewEngine()
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.Cache = cache
		if manifest {
			eng.Manifest = NewManifest(dir, "test")
		}
		if n := len(Failed(eng.Run(jobs[2*i : 2*i+2]))); n != 0 {
			t.Fatalf("%d jobs failed", n)
		}
	}

	rep, err := Fsck(dir, FsckOptions{Deep: true, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || len(rep.Pruned) != 0 {
		t.Fatalf("deep fsck of a shared cache: %s; want clean with nothing pruned", rep)
	}
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cache.Len(); err != nil || n != len(jobs) {
		t.Fatalf("cache holds %d entries (%v) after fsck, want %d", n, err, len(jobs))
	}
}
