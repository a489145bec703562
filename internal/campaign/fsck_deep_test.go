package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFsckDeep desynchronizes a warm cache's manifest journal from its
// entry store in both directions — a done row whose entry vanished, and
// an entry whose journal row was lost — and checks the deep scan reports
// exactly that drift, a shallow scan stays blind to it, and prune
// restores agreement.
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
	data, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, k1) {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(ManifestPath(dir), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	// A shallow scan sees nothing: every remaining file is intact.
	rep, err = Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("shallow scan should not see journal drift: %s", rep)
	}

	// The deep scan sees both directions.
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
	if len(rep.Unjournaled) != 1 || !strings.Contains(rep.Unjournaled[0].Path, k1) {
		t.Fatalf("unjournaled = %+v, want the rowless entry %s", rep.Unjournaled, k1)
	}

	// Prune repairs both: the stale done row is demoted to pending, the
	// rowless entry is removed, and a deep re-scan agrees.
	rep, err = Fsck(dir, FsckOptions{Deep: true, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pruned) != 2 {
		t.Fatalf("pruned %v, want the entry file and the journal row", rep.Pruned)
	}
	rep, err = Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("cache still drifted after prune: %s", rep)
	}
	m, ok := LoadManifest(dir)
	if !ok {
		t.Fatal("manifest unreadable after prune")
	}
	if rec := m.Jobs[k0]; rec == nil || rec.Status != StatusPending {
		t.Fatalf("demoted row = %+v, want status pending", m.Jobs[k0])
	}

	// Resume heals the drift: exactly the two affected cells re-simulate.
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
	if got := again.Simulations(); got != 2 {
		t.Fatalf("post-prune run simulated %d cells, want the 2 drifted ones", got)
	}
	rep, err = Fsck(dir, FsckOptions{Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("cache not deep-clean after healing run: %s", rep)
	}
}
