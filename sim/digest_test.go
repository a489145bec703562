package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// digestWindow is the measurement window (and so the default warmup) of
// the plain cells.
const digestWindow = 5_000

// variantWindow is the window of the variant cells and their plain twins.
// At digestWindow three of the four variants repeat their twin's digest;
// at this window every variant differs from its twin.
const variantWindow = 50_000

// outcomeDigests pins the first 16 hex digits of the sha256 of each cell's
// Result JSON. A cell is "workload/policy" plus an optional "+variant" and
// an optional "@50k" window: every profile under NonSecure (modulo-indexed
// L2) and under CleanupSpec (CEASER L2) at digestWindow, and lbm and mcf
// under CleanupSpec at variantWindow, plain and with CEASER remap running
// over the prewarmed L2 (+remap64) or a way-partitioned L1 (+l1part4). The
// table changes only when simulated behaviour is meant to.
var outcomeDigests = map[string]string{
	"astar/nonsecure":             "cca4b5519eea6d09",
	"astar/cleanupspec":           "360ed2b194f63e0f",
	"gobmk/nonsecure":             "bc2806f9f29ec60b",
	"gobmk/cleanupspec":           "a307f05f4b9dbaed",
	"sjeng/nonsecure":             "b70f1ddfa3cb6341",
	"sjeng/cleanupspec":           "d391e5aa6d3ca312",
	"bzip2/nonsecure":             "e74ac71bdec0cb0e",
	"bzip2/cleanupspec":           "8cb28fd8fef33eab",
	"perl/nonsecure":              "98debe32d17e5596",
	"perl/cleanupspec":            "ab1b95d2416de799",
	"povray/nonsecure":            "8295a87c8ac63b9a",
	"povray/cleanupspec":          "6b3bbb8b5793a58d",
	"gromacs/nonsecure":           "0af390296e07f653",
	"gromacs/cleanupspec":         "1e056c853d7e0beb",
	"h264/nonsecure":              "776b494d04c05784",
	"h264/cleanupspec":            "c40410daf7940967",
	"namd/nonsecure":              "7463f9db7a16ee7d",
	"namd/cleanupspec":            "92b597abc55b2d4c",
	"sphinx3/nonsecure":           "381fa54a2a6a5e24",
	"sphinx3/cleanupspec":         "a3e45add40f6e8c6",
	"wrf/nonsecure":               "c9a846fec0c834e3",
	"wrf/cleanupspec":             "52190b70bf58c48e",
	"hmmer/nonsecure":             "499e1d756eb27fac",
	"hmmer/cleanupspec":           "a78a0892a0b5cdff",
	"mcf/nonsecure":               "2a93945fd04eee12",
	"mcf/cleanupspec":             "685fdd405ef6714e",
	"soplex/nonsecure":            "a4d78a8657242098",
	"soplex/cleanupspec":          "6f5e1f5346a886fe",
	"gcc/nonsecure":               "2ccb9344eb36db59",
	"gcc/cleanupspec":             "997ef5ebbb0cb243",
	"lbm/nonsecure":               "e456203e53448ad1",
	"lbm/cleanupspec":             "cfd6d9d7a44e05a9",
	"cactus/nonsecure":            "500d624f4922695d",
	"cactus/cleanupspec":          "fe326e01d51a4c58",
	"milc/nonsecure":              "99068001770a1812",
	"milc/cleanupspec":            "510d6c521f0554d9",
	"libq/nonsecure":              "abeebf5bf26a8be0",
	"libq/cleanupspec":            "a0445efd6ef809ac",
	"lbm/cleanupspec@50k":         "e87738021bbf7b5e",
	"lbm/cleanupspec+remap64@50k": "7a86c6ce396a3c53",
	"lbm/cleanupspec+l1part4@50k": "6e72b5727f11b474",
	"mcf/cleanupspec@50k":         "b58e70e927a5f6b1",
	"mcf/cleanupspec+remap64@50k": "aeb05267747927b8",
	"mcf/cleanupspec+l1part4@50k": "9c4ec26b059fe759",
}

// TestOutcomeDigests runs every cell of outcomeDigests and compares the
// digest of its Result, so a change that alters any simulated outcome (the
// warm-state L2 included) fails here and names the cell. Each variant cell
// must also differ from its plain twin, or it checks nothing the twin does
// not.
func TestOutcomeDigests(t *testing.T) {
	got := make(map[string]string)
	run := func(cell string, cfg Config, wl string) {
		res, err := RunWorkload(wl, cfg)
		if err != nil {
			t.Errorf("%s: %v", cell, err)
			return
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Errorf("%s: marshal: %v", cell, err)
			return
		}
		sum := sha256.Sum256(data)
		got[cell] = hex.EncodeToString(sum[:8])
		if want, ok := outcomeDigests[cell]; !ok || got[cell] != want {
			t.Errorf("%s: digest %s, want %q", cell, got[cell], want)
		}
	}
	for _, wl := range Workloads() {
		for _, pol := range []Policy{NonSecure, CleanupSpec} {
			run(wl+"/"+string(pol), Config{Policy: pol, Instructions: digestWindow}, wl)
		}
	}
	// lbm's 16 MB and mcf's 8 MB footprints both overflow the 2 MB L2.
	for _, wl := range []string{"lbm", "mcf"} {
		twin := wl + "/cleanupspec@50k"
		run(twin, Config{Policy: CleanupSpec, Instructions: variantWindow}, wl)
		for _, v := range []struct {
			name string
			cfg  Config
		}{
			{"+remap64", Config{Policy: CleanupSpec, Instructions: variantWindow, L2RemapEvery: 64}},
			{"+l1part4", Config{Policy: CleanupSpec, Instructions: variantWindow, L1PartitionWays: 4}},
		} {
			cell := wl + "/cleanupspec" + v.name + "@50k"
			run(cell, v.cfg, wl)
			if got[cell] != "" && got[cell] == got[twin] {
				t.Errorf("%s: same digest as %s; the variant changes nothing", cell, twin)
			}
		}
	}
	if len(got) != len(outcomeDigests) {
		t.Errorf("ran %d cells, table has %d", len(got), len(outcomeDigests))
	}
}
