package campaign

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/sim"
)

func testCfg(p sim.Policy, seed uint64) sim.Config {
	return sim.Config{Policy: p, Instructions: 6_000, Seed: seed}
}

// keyOf is the test-side Key that treats canonicalization failure as fatal.
func keyOf(t *testing.T, wl string, cfg sim.Config) string {
	t.Helper()
	k, err := Key(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// mustKey is keyOf for a Job.
func mustKey(t *testing.T, j Job) string {
	t.Helper()
	return keyOf(t, j.Workload, j.Config)
}

// observationOnly names the sim.Config fields that never change a run's
// outcome, with a setter that attaches each one. Setting them must leave
// the cache key unchanged.
var observationOnly = map[string]func(*sim.Config){
	"Trace":       func(c *sim.Config) { c.Trace = sim.NewTraceRing(16) },
	"Metrics":     func(c *sim.Config) { c.Metrics = &sim.Metrics{} },
	"SampleEvery": func(c *sim.Config) { c.SampleEvery = 1000 },
}

// TestKeyDeterminismAndSensitivity walks sim.Config by reflection, so a
// field is covered the moment it is declared. Every field but the
// observation-only ones must change the key when set away from its
// resolved default: a field the key cannot see (unexported, or tagged
// json:"-") would alias distinct configurations onto one cache entry.
func TestKeyDeterminismAndSensitivity(t *testing.T) {
	base := testCfg(sim.CleanupSpec, 1)
	k := keyOf(t, "astar", base)
	if k != keyOf(t, "astar", base) {
		t.Fatal("key not deterministic")
	}
	if len(k) != 32 {
		t.Fatalf("key %q: want 32 hex chars", k)
	}
	if keyOf(t, "gcc", base) == k {
		t.Error("workload not part of the key")
	}

	resolved := reflect.ValueOf(base.Resolved())
	typ := resolved.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			t.Errorf("sim.Config.%s is unexported: encoding/json skips it, so it cannot reach the key", f.Name)
			continue
		}
		if set, ok := observationOnly[f.Name]; ok {
			cfg := base
			set(&cfg)
			if keyOf(t, "astar", cfg) != k {
				t.Errorf("observation-only sim.Config.%s changed the key", f.Name)
			}
			continue
		}
		values, err := otherValues(resolved.Field(i))
		if err != nil {
			t.Errorf("sim.Config.%s: %v", f.Name, err)
			continue
		}
		changed := false
		for _, v := range values {
			cfg := base
			reflect.ValueOf(&cfg).Elem().Field(i).Set(v)
			changed = changed || keyOf(t, "astar", cfg) != k
		}
		if !changed {
			t.Errorf("setting sim.Config.%s away from its default leaves the key unchanged", f.Name)
		}
	}
	for name := range observationOnly {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("observation-only field %s is not in sim.Config", name)
		}
	}

	// Defaults-resolution equivalence: an explicitly spelled-out default
	// hashes the same as the implicit one.
	explicit := sim.Config{Policy: sim.CleanupSpec, Instructions: 6_000, Seed: 1,
		MaxCycles: 500_000_000, Warmup: 6_000, WatchdogWindow: 200_000}
	if keyOf(t, "astar", explicit) != k {
		t.Error("explicit defaults must share the implicit-defaults key")
	}
}

// otherValues returns values of v's type that differ from v: one for a
// scalar, and for a *bool whichever of &true and &false v is not.
func otherValues(v reflect.Value) ([]reflect.Value, error) {
	other := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Bool:
		other.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		other.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		other.SetUint(v.Uint() + 1)
	case reflect.String:
		other.SetString(v.String() + "x")
	case reflect.Pointer:
		if v.Type().Elem().Kind() != reflect.Bool {
			return nil, fmt.Errorf("the test cannot set a field of type %s", v.Type())
		}
		var out []reflect.Value
		for _, b := range []bool{true, false} {
			if v.IsNil() || v.Elem().Bool() != b {
				p := reflect.New(v.Type().Elem())
				p.Elem().SetBool(b)
				out = append(out, p)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("the test cannot set a field of type %s", v.Type())
	}
	return []reflect.Value{other}, nil
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Workload: "astar", Config: testCfg(sim.NonSecure, 1)}
	res, err := sim.RunWorkload(job.Workload, job.Config)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, job)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := c.Put(job, res, nil); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Get(key)
	if !ok {
		t.Fatal("cache miss after Put")
	}
	if e.Sum == "" {
		t.Fatal("entry has no checksum")
	}
	if !reflect.DeepEqual(e.Result, res) {
		t.Fatalf("result did not round-trip:\n got %+v\nwant %+v", e.Result, res)
	}
	if e.Workload != "astar" || e.Policy != sim.NonSecure || e.Seed != 1 {
		t.Fatalf("entry metadata wrong: %+v", e)
	}
	if e.Summary["ipc"] != res.IPC || e.Summary["cycles"] != float64(res.Cycles) {
		t.Fatalf("entry summary wrong: %+v", e.Summary)
	}

	// A torn/corrupt entry must read as a miss, not an error.
	var warned []string
	c.Warn = func(msg string) { warned = append(warned, msg) }
	if err := os.WriteFile(c.path(key), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if len(warned) != 1 || c.CorruptReads() != 1 {
		t.Fatalf("torn entry not logged: warned=%v corrupt=%d", warned, c.CorruptReads())
	}

	// Valid JSON whose content was tampered with must fail the checksum —
	// a silently flipped measurement is worse than a miss.
	if err := c.Put(job, res, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"workload": "astar"`, `"workload": "bstar"`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found in entry JSON")
	}
	if err := os.WriteFile(c.path(key), []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("checksum-mismatched entry served as a hit")
	}
	if last := warned[len(warned)-1]; !strings.Contains(last, "checksum mismatch") {
		t.Fatalf("tamper warning = %q", last)
	}
	// Restore a clean entry for the Entries scan below.
	if err := c.Put(job, res, nil); err != nil {
		t.Fatal(err)
	}

	// Entries skips root-level files (the run status) and quarantine
	// dumps, and returns the clean entries sorted by workload.
	if err := os.WriteFile(StatusPath(dir), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(QuarantineDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(QuarantineDir(dir), "dead.json"), []byte(`{"panic":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	job2 := Job{Workload: "gcc", Config: testCfg(sim.NonSecure, 1)}
	if err := c.Put(job2, res, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := c.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Workload != "astar" || entries[1].Workload != "gcc" {
		t.Fatalf("Entries: got %d entries %+v, want astar+gcc", len(entries), entries)
	}
}

// TestStatusRoundTrip builds a run's status from its results — one cell
// simulated, one served from the cache, one failed, one quarantined — and
// checks that Save and LoadStatus keep every row in job order, that a
// later run's Save replaces the status whole, and that a torn status file
// is an error rather than a status.
func TestStatusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadStatus(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("status where no run finished: err = %v, want not-exist", err)
	}
	jobs := Grid{Name: "quick", Workloads: []string{"astar", "gcc", "lbm", "sphinx3"},
		Policies: []sim.Policy{sim.NonSecure}, Instructions: 6_000}.Jobs()
	results := []JobResult{
		{Job: jobs[0], Result: sim.Result{IPC: 1.5}, Elapsed: 1500 * time.Millisecond},
		{Job: jobs[1], Result: sim.Result{IPC: 0.75}, Cached: true},
		{Job: jobs[2], Err: errors.New("timeout")},
		{Job: jobs[3], Err: errors.New("worker panic: boom"), Quarantined: true, DumpPath: "q/dead.json"},
	}
	if err := NewStatus("quick", results).Save(dir); err != nil {
		t.Fatal(err)
	}
	st, err := LoadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []JobRecord{
		{Workload: "astar", Policy: sim.NonSecure, Seed: 1, Status: StatusDone, IPC: 1.5, MS: 1500},
		{Workload: "gcc", Policy: sim.NonSecure, Seed: 1, Status: StatusDone, Cached: true, IPC: 0.75},
		{Workload: "lbm", Policy: sim.NonSecure, Seed: 1, Status: StatusFailed, Err: "timeout"},
		{Workload: "sphinx3", Policy: sim.NonSecure, Seed: 1, Status: StatusQuarantined, Err: "worker panic: boom", Dump: "q/dead.json"},
	}
	if st.Grid != "quick" || !reflect.DeepEqual(st.Jobs, want) {
		t.Fatalf("status read back as grid %q, rows\n%+v\nwant grid \"quick\", rows\n%+v", st.Grid, st.Jobs, want)
	}
	if d, f, q := st.Counts(); d != 2 || f != 1 || q != 1 {
		t.Fatalf("counts: done=%d failed=%d quarantined=%d, want 2/1/1", d, f, q)
	}

	if err := NewStatus("again", results[:1]).Save(dir); err != nil {
		t.Fatal(err)
	}
	if st, err = LoadStatus(dir); err != nil || st.Grid != "again" || len(st.Jobs) != 1 {
		t.Fatalf("status after a second run: %+v (%v), want grid \"again\" with 1 row", st, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range names {
		if isTempFile(d.Name()) {
			t.Errorf("Save left temp file %s", d.Name())
		}
	}

	if err := os.WriteFile(StatusPath(dir), []byte(`{"grid":"qu`), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := LoadStatus(dir); err == nil {
		t.Fatalf("torn status read as %+v", st)
	}
}

func TestGridExpansion(t *testing.T) {
	g := Grid{
		Name:      "t",
		Workloads: []string{"astar", "gcc"},
		Policies:  []sim.Policy{sim.NonSecure, sim.CleanupSpec},
		Seeds:     []uint64{1, 2, 3},
	}
	jobs := g.Jobs()
	if len(jobs) != 2*2*3 {
		t.Fatalf("expanded to %d jobs, want 12", len(jobs))
	}
	seen := make(map[string]bool)
	for _, j := range jobs {
		k := mustKey(t, j)
		if seen[k] {
			t.Fatalf("duplicate key in expansion: %s", j)
		}
		seen[k] = true
	}
	// Deterministic order: first jobs sweep seeds of (astar, nonsecure).
	if jobs[0].Workload != "astar" || jobs[1].Config.Seed != 2 {
		t.Fatalf("unexpected expansion order: %v then %v", jobs[0], jobs[1])
	}
}

func TestGridByName(t *testing.T) {
	for _, name := range GridNames() {
		g, err := GridByName(name, 10_000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Jobs()) == 0 {
			t.Fatalf("grid %q is empty", name)
		}
	}
	if _, err := GridByName("nope", 0, nil); err == nil {
		t.Fatal("unknown grid must error")
	}
	all, _ := GridByName("all", 0, []uint64{1, 2})
	if want := len(sim.Workloads()) * len(sim.Policies()) * 2; len(all.Jobs()) != want {
		t.Fatalf("all grid: %d jobs, want %d", len(all.Jobs()), want)
	}
}

func TestParseSeeds(t *testing.T) {
	cases := []struct {
		in   string
		want []uint64
		err  bool
	}{
		{"", nil, false},
		{"1..5", []uint64{1, 2, 3, 4, 5}, false},
		{"1,7,42", []uint64{1, 7, 42}, false},
		{"1,1,2", []uint64{1, 2}, false},
		{" 2 .. 3 ", []uint64{2, 3}, false},
		{"5..1", nil, true},
		{"0..3", nil, true},
		{"a,b", nil, true},
		{"1..99999", nil, true},
		{"18446744073709551614..18446744073709551615", []uint64{1<<64 - 2, 1<<64 - 1}, false},
	}
	for _, c := range cases {
		got, err := ParseSeeds(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseSeeds(%q): err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSeeds(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSummaryAndCSV(t *testing.T) {
	jobs := Grid{Name: "t", Workloads: []string{"astar", "gcc"},
		Policies:     []sim.Policy{sim.NonSecure, sim.CleanupSpec},
		Instructions: 6_000}.Jobs()
	eng := NewEngine()
	results := eng.Run(jobs)
	if n := len(Failed(results)); n != 0 {
		t.Fatalf("%d jobs failed", n)
	}
	table := SummaryTable(results).String()
	if !strings.Contains(table, "cleanupspec") || !strings.Contains(table, "%") {
		t.Fatalf("summary table missing slowdown row:\n%s", table)
	}
	var b strings.Builder
	if err := ResultsCSV(&b, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(jobs) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(jobs), b.String())
	}
	if !strings.HasPrefix(lines[0], "workload,policy,") {
		t.Fatalf("CSV header: %s", lines[0])
	}
}
