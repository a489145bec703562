package campaign

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/sim"
)

// damageJobs is the grid every damage row runs: four simulation cells and
// one kindModel cell whose executor a row can swap for one that panics.
// Short windows keep a row's two runs fast.
func damageJobs() []Job {
	jobs := Grid{
		Name:         "damage",
		Workloads:    []string{"astar", "gcc", "lbm", "sphinx3"},
		Policies:     []sim.Policy{sim.NonSecure},
		Instructions: 2_000,
	}.Jobs()
	model := jobs[0]
	model.Kind = kindModel
	jobs = append(jobs, model)
	for i := range jobs {
		jobs[i].Config.NoWarmup = true
	}
	return jobs
}

// damageRun runs the damage grid once on the cache at dir the way `campaign
// run` does (two workers), with exec as the kindModel executor and
// progress written to w.
func damageRun(t *testing.T, dir string, exec CellFunc, w io.Writer) (*Engine, []JobResult) {
	t.Helper()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.Workers = 2
	eng.Cache = cache
	eng.Reporter = NewReporter(w)
	eng.RegisterCell(kindModel, exec)
	return eng, eng.Run(damageJobs())
}

// rotCycles changes one digit of the Result.Cycles of the entry at path:
// bit rot that keeps the JSON valid, so only the checksum can catch it.
func rotCycles(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"Cycles": `))
	if i < 0 {
		t.Fatalf("no Result.Cycles in entry %s", path)
	}
	i += len(`"Cycles": `)
	if data[i] == '9' {
		data[i] = '8'
	} else {
		data[i] = '9'
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Each damage below is what a real fault leaves on disk between two runs.
// The entry damages aim at different cells, so the "everything at once"
// row can apply them all.

// rotEntry rots cell 0's entry.
func rotEntry(t *testing.T, dir string, jobs []Job) {
	rotCycles(t, entryPath(dir, mustKey(t, jobs[0])))
}

// tearEntry keeps the first half of cell 1's entry: a write whose tail
// never reached the disk.
func tearEntry(t *testing.T, dir string, jobs []Job) {
	path := entryPath(dir, mustKey(t, jobs[1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// loseEntry deletes cell 2's entry.
func loseEntry(t *testing.T, dir string, jobs []Job) {
	if err := os.Remove(entryPath(dir, mustKey(t, jobs[2]))); err != nil {
		t.Fatal(err)
	}
}

// interruptWrite turns cell 3's entry into what a kill between Cache.Put's
// write and its rename leaves: half the bytes in the temp file, no entry.
func interruptWrite(t *testing.T, dir string, jobs []Job) {
	key := mustKey(t, jobs[3])
	path := entryPath(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(filepath.Dir(path), "."+key+".tmp-1")
	if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamageConverges makes each fault a long campaign meets for real —
// damage on disk between two runs, a model bug that panics a cell — and
// checks recovery: after a pruning fsck, one clean rerun fails no job,
// simulates only what the fault destroyed, exports results byte-identical
// to an undamaged campaign's, and leaves a cache fsck finds clean with
// every cell.
func TestDamageConverges(t *testing.T) {
	jobs := damageJobs()
	var ref strings.Builder
	_, refResults := damageRun(t, t.TempDir(), simulateCell, io.Discard)
	if n := len(Failed(refResults)) + len(Quarantined(refResults)); n != 0 {
		t.Fatalf("%d jobs failed in the undamaged reference run", n)
	}
	if err := ResultsCSV(&ref, refResults); err != nil {
		t.Fatal(err)
	}

	type damage func(t *testing.T, dir string, jobs []Job)
	rows := []struct {
		name string
		// panics swaps in the panicking kindModel executor for the first
		// run; the rerun has the working one.
		panics bool
		damage []damage // applied between the runs, in order
		warn   string   // the first run's progress output must say this
		sims   int64    // cells the rerun must simulate
	}{
		{name: "bit rot", damage: []damage{rotEntry}, sims: 1},
		{name: "torn entry", damage: []damage{tearEntry}, sims: 1},
		{name: "lost entry", damage: []damage{loseEntry}, sims: 1},
		{name: "interrupted write", damage: []damage{interruptWrite}, sims: 1},
		{name: "panicking cell", panics: true, warn: "QUARANTINED model:astar", sims: 1},
		{name: "everything at once", panics: true, warn: "QUARANTINED model:astar", sims: 5,
			damage: []damage{rotEntry, tearEntry, loseEntry, interruptWrite}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			exec := simulateCell
			if row.panics {
				exec = panickingCell
			}
			var progress strings.Builder
			_, first := damageRun(t, dir, exec, &progress)
			if n := len(Failed(first)); n != 0 {
				t.Fatalf("%d jobs failed in the first run", n)
			}
			wantQuarantined := 0
			if row.panics {
				wantQuarantined = 1
			}
			if got := len(Quarantined(first)); got != wantQuarantined {
				t.Fatalf("first run quarantined %d cells, want %d", got, wantQuarantined)
			}
			if !strings.Contains(progress.String(), row.warn) {
				t.Fatalf("first run's progress does not say %q:\n%s", row.warn, progress.String())
			}
			for _, d := range row.damage {
				d(t, dir, jobs)
			}

			if _, err := Fsck(dir, true); err != nil {
				t.Fatalf("fsck -prune: %v", err)
			}
			eng, results := damageRun(t, dir, simulateCell, io.Discard)
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("rerun job %s: %v", r.Job, r.Err)
				}
			}
			if got := eng.Simulations(); got != row.sims {
				t.Errorf("rerun simulated %d cells, want %d", got, row.sims)
			}
			var got strings.Builder
			if err := ResultsCSV(&got, results); err != nil {
				t.Fatal(err)
			}
			if got.String() != ref.String() {
				t.Fatalf("rerun export diverged from the undamaged campaign\n got: %q\nwant: %q", got.String(), ref.String())
			}
			rep, err := Fsck(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() || rep.OK != len(jobs) {
				t.Fatalf("cache after the rerun: %s; want clean with %d entries", rep, len(jobs))
			}
		})
	}
}
