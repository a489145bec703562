package campaign

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestReplay quarantines a cell whose executor panics, loads the dump back
// and replays it on a fresh engine whose executor for that kind is fixed
// and simulates the job. The dump carries no trace of its own; the replay
// supplies the cell's whole event history, and the fixed replay matches a
// plain run of the same simulation.
func TestReplay(t *testing.T) {
	dir := t.TempDir()
	job := smallGrid().Jobs()[0]
	job.Kind = kindModel

	eng := NewEngine()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	eng.RegisterCell(kindModel, panickingCell)
	r := eng.Run([]Job{job})[0]
	if !r.Quarantined || r.DumpPath == "" {
		t.Fatalf("want a quarantined result with a dump, got %+v", r)
	}

	data, err := os.ReadFile(r.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatalf("dump unparseable: %v", err)
	}
	if _, ok := fields["trace"]; ok {
		t.Fatal("dump carries a trace key; its events come from replay")
	}
	dump, err := LoadDump(r.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Key != r.Key {
		t.Fatalf("dump key %s, want %s", dump.Key, r.Key)
	}

	fixed := NewEngine()
	fixed.RegisterCell(kindModel, simulateCell)
	rep, err := Replay(fixed, dump, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reproduced || rep.Result.Err != nil {
		t.Fatalf("replay on the fixed executor: reproduced=%v err=%v", rep.Reproduced, rep.Result.Err)
	}
	if len(rep.Events) == 0 || rep.Dropped != 0 {
		t.Fatalf("replay captured %d event(s), dropped %d; want a full trace", len(rep.Events), rep.Dropped)
	}
	plain := job
	plain.Kind = KindSim
	want := NewEngine().RunJob(plain)
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	if !reflect.DeepEqual(rep.Result.Result, want.Result) {
		t.Fatalf("replay result differs from a plain run:\n got %+v\nwant %+v", rep.Result.Result, want.Result)
	}
}
