package main

// `campaign inspect` reads what a campaign left behind without
// re-simulating anything: it lists every cached cell's headline numbers
// and an IPC sparkline per policy.

import (
	"flag"
	"fmt"

	"repro/internal/stats"
	"repro/sim"
)

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("campaign inspect", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	fs.Parse(args)

	entries, err := cachedEntries(*cacheDir)
	if err != nil {
		return err
	}

	t := stats.NewTable(fmt.Sprintf("%d cached cell(s) at %s", len(entries), *cacheDir),
		"Cell", "IPC", "Squash/KI", "L1 miss", "Traffic")
	for _, e := range entries {
		t.AddRow(cellName(e.Workload, e.Policy, e.Seed),
			fmt.Sprintf("%.3f", e.Result.IPC),
			fmt.Sprintf("%.2f", e.Result.SquashPKI),
			fmt.Sprintf("%.2f%%", e.Result.L1MissRate*100),
			fmt.Sprintf("%d", e.Result.Traffic.Total()))
	}
	fmt.Println(t.String())

	// Per-policy IPC profile across workloads (seed 1).
	byPolicy := make(map[string]map[string]float64)
	for _, e := range entries {
		if e.Seed != 1 {
			continue
		}
		if byPolicy[string(e.Policy)] == nil {
			byPolicy[string(e.Policy)] = make(map[string]float64)
		}
		byPolicy[string(e.Policy)][e.Workload] = e.Result.IPC
	}
	if len(byPolicy) > 0 {
		fmt.Println("IPC across workloads (sorted by name):")
		for _, p := range stats.SortedKeys(byPolicy) {
			cells := byPolicy[p]
			var vals []float64
			for _, wl := range stats.SortedKeys(cells) {
				vals = append(vals, cells[wl])
			}
			lo, hi := stats.MinMax(vals)
			fmt.Printf("  %-20s %s  [%.3f .. %.3f] over %d workload(s)\n",
				p, stats.Sparkline(vals), lo, hi, len(vals))
		}
	}
	return nil
}

// cellName labels a cell the way progress lines do: workload/policy, then
// any seed above 1.
func cellName(workload string, pol sim.Policy, seed uint64) string {
	cell := workload + "/" + string(pol)
	if seed > 1 {
		cell += fmt.Sprintf("/seed%d", seed)
	}
	return cell
}
