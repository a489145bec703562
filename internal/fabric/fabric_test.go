package fabric

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// newWorker builds a step-machine worker with its own engine and local
// cache, sleeps disabled so tests drive every round explicitly.
func newWorker(t *testing.T, id string, conn Conn) *Worker {
	t.Helper()
	eng := campaign.NewEngine()
	eng.Reporter = campaign.NewReporter(io.Discard)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	return &Worker{ID: id, Conn: conn, Engine: eng, Sleep: func(time.Duration) {}}
}

// runToShutdown steps w until the coordinator declares the campaign
// settled, with an iteration bound so a livelock fails instead of hanging.
func runToShutdown(t *testing.T, w *Worker) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		done, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
	}
	t.Fatalf("worker %s: no shutdown after 1000 steps", w.ID)
}

// referenceExport runs jobs on a plain single-host engine and renders the
// cache's deterministic export surfaces — the bytes every fabric topology
// must converge to.
func referenceExport(t *testing.T, jobs []campaign.Job) (entriesCSV string) {
	t.Helper()
	eng := campaign.NewEngine()
	eng.Workers = 1
	eng.Reporter = campaign.NewReporter(io.Discard)
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	results := eng.Run(jobs)
	if n := len(campaign.Failed(results)); n != 0 {
		t.Fatalf("%d reference jobs failed", n)
	}
	return cacheExport(t, cache)
}

// cacheExport renders a cache's entries as the canonical CSV export.
func cacheExport(t *testing.T, cache *campaign.Cache) string {
	t.Helper()
	entries, err := cache.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := campaign.EntriesCSV(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFabricTwoWorkersMatchSingleHost(t *testing.T) {
	cells := testCells(t, 4)
	// A dependency edge: the last cell must wait for the first.
	cells[3].Deps = []string{cells[0].Key}
	jobs := make([]campaign.Job, 0, len(cells))
	for _, c := range cells {
		jobs = append(jobs, c.Job)
	}
	want := referenceExport(t, jobs)

	c, err := NewCoordinator(Config{Grid: "two-workers", Cells: cells, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := &LocalConn{C: c}
	w1, w2 := newWorker(t, "w1", conn), newWorker(t, "w2", conn)
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("campaign did not settle in 1000 rounds")
		}
		d1, err1 := w1.Step()
		d2, err2 := w2.Step()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if d1 && d2 {
			break
		}
	}

	if !c.Settled() {
		t.Fatal("coordinator not settled after both workers shut down")
	}
	_, _, done, failed, quarantined := c.Counts()
	if done != len(cells) || failed != 0 || quarantined != 0 {
		t.Fatalf("counts: done=%d failed=%d quarantined=%d, want %d/0/0", done, failed, quarantined, len(cells))
	}
	st := c.Stats()
	if st.Granted != uint64(len(cells)) || st.Completed != uint64(len(cells)) {
		t.Errorf("stats: granted=%d completed=%d, want %d each", st.Granted, st.Completed, len(cells))
	}
	if w1.CellsRun+w2.CellsRun != len(cells) {
		t.Errorf("cells run: %d + %d, want %d total", w1.CellsRun, w2.CellsRun, len(cells))
	}
	if got := cacheExport(t, c.Cache()); got != want {
		t.Errorf("fabric export differs from single-host run:\n%s\nvs\n%s", got, want)
	}
	mp, md, mf, mq := c.Manifest().Counts()
	if mp != 0 || md != len(cells) || mf != 0 || mq != 0 {
		t.Errorf("manifest counts: %d/%d/%d/%d, want 0/%d/0/0", mp, md, mf, mq, len(cells))
	}
}

// TestFabricStaleCompletionAndRemoteHit walks the reclaimed-lease race end
// to end: w1 goes dark holding a lease, the cell re-queues and re-grants
// to w2, w1's late completion lands stale (accepted), and w2 then serves
// the cell from the coordinator's shared cache instead of re-simulating.
func TestFabricStaleCompletionAndRemoteHit(t *testing.T) {
	cells := testCells(t, 1)
	c, err := NewCoordinator(Config{Grid: "stale", Cells: cells, CacheDir: t.TempDir(), TTLTicks: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := &LocalConn{C: c}
	w1, w2 := newWorker(t, "w1", conn), newWorker(t, "w2", conn)

	if _, err := w1.Step(); err != nil { // w1 acquires the lease...
		t.Fatal(err)
	}
	if w1.Holding() != cells[0].Key {
		t.Fatal("w1 did not acquire the lease")
	}
	if n := c.Advance(6); n != 1 { // ...and "dies": the clock reclaims it
		t.Fatalf("reclaimed %d leases, want 1", n)
	}
	if _, err := w2.Step(); err != nil { // w2 picks the cell up
		t.Fatal(err)
	}
	if w2.Holding() != cells[0].Key {
		t.Fatal("w2 did not acquire the reclaimed lease")
	}
	if _, err := w1.Step(); err != nil { // w1 was alive all along: stale complete
		t.Fatal(err)
	}
	if _, err := w2.Step(); err != nil { // w2 executes: local miss, remote hit
		t.Fatal(err)
	}
	runToShutdown(t, w1)
	runToShutdown(t, w2)

	st := c.Stats()
	if st.Expired != 1 || st.StaleCompletes != 1 || st.DupCompletes != 1 {
		t.Errorf("stats: expired=%d stale=%d dup=%d, want 1/1/1", st.Expired, st.StaleCompletes, st.DupCompletes)
	}
	if st.RemoteReads != 1 || w2.RemoteHits != 1 {
		t.Errorf("remote reads=%d, w2 hits=%d, want 1/1", st.RemoteReads, w2.RemoteHits)
	}
	if w1.CellsRun != 1 || w2.CellsRun != 0 {
		t.Errorf("cells run: w1=%d w2=%d, want 1/0 (w2 served remotely)", w1.CellsRun, w2.CellsRun)
	}
	if _, _, done, _, _ := c.Counts(); done != 1 {
		t.Errorf("done=%d, want 1", done)
	}
}

// corruptEntryConn damages every remote entry it relays — the wire-level
// bit-rot the worker must survive by degrading to local simulation.
type corruptEntryConn struct{ inner Conn }

func (c *corruptEntryConn) Do(m Msg) (Msg, error) {
	resp, err := c.inner.Do(m)
	if err == nil && resp.Type == MsgEntry && resp.Entry != nil {
		e := *resp.Entry
		e.Sum = "deadbeef" // breaks checksum verification
		resp.Entry = &e
	}
	return resp, err
}

func TestFabricCorruptRemoteEntryDegrades(t *testing.T) {
	cells := testCells(t, 1)
	c, err := NewCoordinator(Config{Grid: "degrade", Cells: cells, CacheDir: t.TempDir(), TTLTicks: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := &LocalConn{C: c}
	w1 := newWorker(t, "w1", conn)
	w2 := newWorker(t, "w2", &corruptEntryConn{inner: conn})

	// Same reclaimed-lease dance as above, but w2's remote read comes back
	// damaged: it must fall back to simulating the cell itself.
	if _, err := w1.Step(); err != nil {
		t.Fatal(err)
	}
	c.Advance(6)
	if _, err := w2.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Step(); err != nil {
		t.Fatal(err)
	}
	runToShutdown(t, w1)
	runToShutdown(t, w2)

	if w2.Degraded != 1 || w2.RemoteHits != 0 || w2.CellsRun != 1 {
		t.Errorf("w2: degraded=%d remoteHits=%d cellsRun=%d, want 1/0/1", w2.Degraded, w2.RemoteHits, w2.CellsRun)
	}
	// The shared cache still holds exactly the verified entry.
	e, ok := c.Cache().Get(cells[0].Key)
	if !ok || !e.Verify() {
		t.Fatal("shared cache entry missing or unverifiable after degrade")
	}
}

// TestFabricRejectsCorruptUpload: a completion whose entry fails its
// checksum must be refused without settling the cell or poisoning the
// shared cache.
func TestFabricRejectsCorruptUpload(t *testing.T) {
	cells := testCells(t, 1)
	c, err := NewCoordinator(Config{Grid: "reject", Cells: cells, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	grant := c.Handle(Msg{Type: MsgLeaseReq, Worker: "w1"})
	if grant.Type != MsgGrant {
		t.Fatalf("grant reply: %+v", grant)
	}
	r := campaign.NewEngine().RunJob(*grant.Job)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	e, err := campaign.NewEntry(r.Job, r.Result, r.Aux)
	if err != nil {
		t.Fatal(err)
	}
	e.Sum = "deadbeef"
	resp := c.Handle(Msg{Type: MsgComplete, Worker: "w1", Key: grant.Key, Lease: grant.Lease, Status: campaign.StatusDone, Entry: &e})
	if resp.Type != MsgNack {
		t.Fatalf("corrupt upload accepted: %+v", resp)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Completed != 0 {
		t.Errorf("stats: rejected=%d completed=%d, want 1/0", st.Rejected, st.Completed)
	}
	if _, ok := c.Cache().Get(grant.Key); ok {
		t.Fatal("corrupt entry reached the shared cache")
	}
	if _, _, done, _, _ := c.Counts(); done != 0 {
		t.Fatal("cell settled from a rejected upload")
	}
}

// TestFabricResume: a second coordinator over the same cache dir settles
// every already-simulated cell from verified entries alone — no lease, no
// re-simulation — and only the remainder is re-run.
func TestFabricResume(t *testing.T) {
	cells := testCells(t, 3)
	dir := t.TempDir()
	c1, err := NewCoordinator(Config{Grid: "resume", Cells: cells[:2], CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(t, "w1", &LocalConn{C: c1})
	runToShutdown(t, w)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCoordinator(Config{Grid: "resume", Cells: cells, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.ResumedCells != 2 {
		t.Fatalf("resumed %d cells, want 2", st.ResumedCells)
	}
	w2 := newWorker(t, "w2", &LocalConn{C: c2})
	runToShutdown(t, w2)
	if w2.CellsRun != 1 {
		t.Errorf("resumed run simulated %d cells, want 1 (the new one)", w2.CellsRun)
	}
	if _, _, done, _, _ := c2.Counts(); done != 3 {
		t.Errorf("done=%d, want 3", done)
	}
}

// TestFabricFailedCellCascades: a cell whose job fails settles as failed
// and takes its dependents with it — the campaign still terminates.
func TestFabricFailedCellCascades(t *testing.T) {
	cells := testCells(t, 2)
	// An unknown workload fails in the engine (after its retry).
	cells[0].Job.Workload = "no-such-workload"
	var err error
	cells[0].Key, err = cells[0].Job.Key()
	if err != nil {
		t.Fatal(err)
	}
	cells[1].Deps = []string{cells[0].Key}

	c, err := NewCoordinator(Config{Grid: "cascade", Cells: cells, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := newWorker(t, "w1", &LocalConn{C: c})
	runToShutdown(t, w)

	_, _, done, failed, _ := c.Counts()
	if done != 0 || failed != 2 {
		t.Fatalf("done=%d failed=%d, want 0/2 (failure + cascade)", done, failed)
	}
}
