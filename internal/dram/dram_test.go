package dram

import (
	"testing"

	"repro/internal/arch"
)

// TestClosePageConstantLatency checks the paper's close-page policy: every
// access costs the same round trip, so a victim's access to a row does not
// change an observer's latency to another line of the same row.
func TestClosePageConstantLatency(t *testing.T) {
	d := New(DefaultConfig())
	victim := arch.LineAddr(100)
	probe := victim + 1 // same row
	first := d.AccessLatency(victim, false)
	second := d.AccessLatency(victim, false) // same line, immediately after
	if first != second || first != 100 {
		t.Fatalf("close-page latencies %d, %d; want constant 100", first, second)
	}
	if lat := d.AccessLatency(probe, false); lat != 100 {
		t.Fatalf("probe after the victim's access took %d cycles, want 100: the row buffer leaks", lat)
	}
	if d.Stats.Reads != 3 {
		t.Fatalf("reads %d", d.Stats.Reads)
	}
}

func TestWriteCounts(t *testing.T) {
	d := New(DefaultConfig())
	d.AccessLatency(arch.LineAddr(5), true)
	if d.Stats.Writes != 1 || d.Stats.Reads != 0 {
		t.Fatalf("stats %+v", d.Stats)
	}
	d.ResetStats()
	if d.Stats.Writes != 0 {
		t.Fatal("ResetStats failed")
	}
}
