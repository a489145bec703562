package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestWatchdogNamesLivelock runs a configuration that stops forward
// progress for real: CleanupSpec pads every cleanup stall to 1,999
// cycles, one short of the 2,000-cycle window, so after a squash the core
// commits nothing for the pad plus the refetch behind it. The watchdog
// must turn that into a structured LivelockError promptly (within the
// window, not at MaxCycles), naming the stalled structure.
func TestWatchdogNamesLivelock(t *testing.T) {
	cfg := Config{
		Policy:              CleanupSpec,
		Instructions:        50_000,
		NoWarmup:            true,
		ConstantTimeCleanup: 1_999,
		WatchdogWindow:      2_000,
	}
	_, err := RunWorkload("astar", cfg)
	if err == nil {
		t.Fatal("a cleanup pad one cycle short of the watchdog window did not fail the run")
	}
	var lerr *LivelockError
	if !errors.As(err, &lerr) {
		t.Fatalf("run error is not a LivelockError: %v", err)
	}
	if !strings.HasPrefix(lerr.Stalled, "front end") {
		t.Fatalf("watchdog blamed %q, want the front end", lerr.Stalled)
	}
	if uint64(lerr.Window) != 2_000 {
		t.Fatalf("window = %d, want 2000", lerr.Window)
	}
	if uint64(lerr.Cycle) > 5_000 {
		t.Fatalf("watchdog fired at cycle %d, want within the window of the last commit", lerr.Cycle)
	}
	if lerr.ROB.Cap == 0 {
		t.Fatalf("livelock report missing ROB capacity: %+v", lerr)
	}
	if !strings.Contains(err.Error(), "no commit for") {
		t.Fatalf("error text %q missing diagnosis", err)
	}
}
