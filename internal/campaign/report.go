package campaign

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
	"repro/sim"
)

// SummaryTable aggregates a run's results into the campaign's headline
// table: one row per policy, reporting the mean IPC across all cells and —
// when the grid includes the non-secure baseline — the geomean slowdown vs
// baseline, averaged (arithmetic mean) across seeds. Normalization pairs
// each cell with the baseline cell of the same (workload, seed), mirroring
// how the paper's Table 6 and Figure 12 averages are built. Failed jobs
// are skipped.
func SummaryTable(results []JobResult) *stats.Table {
	t := stats.NewTable("Campaign summary (geomean slowdown vs non-secure, mean across seeds)",
		"Policy", "Cells", "Mean IPC", "Slowdown")
	base := baselineCycles(results)

	cells := make(map[sim.Policy][]JobResult)
	for _, r := range results {
		if r.Failed() {
			continue
		}
		p := r.Job.Config.Resolved().Policy
		cells[p] = append(cells[p], r)
	}
	policies := make([]sim.Policy, 0, len(cells))
	for p := range cells {
		policies = append(policies, p)
	}
	sort.Slice(policies, func(i, j int) bool { return policies[i] < policies[j] })

	for _, pol := range policies {
		rs := cells[pol]
		var ipcs []float64
		// Per-seed geomean of normalized time over workloads, then mean
		// across seeds.
		bySeed := make(map[uint64][]float64)
		for _, r := range rs {
			ipcs = append(ipcs, r.Result.IPC)
			rc := r.Job.Config.Resolved()
			bk := fmt.Sprintf("%s/%d", r.Job.Workload, rc.Seed)
			if b, ok := base[bk]; ok && b > 0 && rc.Policy != sim.NonSecure {
				bySeed[rc.Seed] = append(bySeed[rc.Seed], float64(r.Result.Cycles)/b)
			}
		}
		slowdown := "-"
		if len(bySeed) > 0 {
			// Iterate seeds in sorted order: float accumulation is not
			// associative, so a map-order mean could differ in the last
			// bit between two runs of the same campaign.
			seedKeys := make([]uint64, 0, len(bySeed))
			for seed := range bySeed {
				seedKeys = append(seedKeys, seed)
			}
			sort.Slice(seedKeys, func(i, j int) bool { return seedKeys[i] < seedKeys[j] })
			var perSeed []float64
			clamped := 0
			for _, seed := range seedKeys {
				g, c := stats.GeomeanClamped(bySeed[seed])
				perSeed = append(perSeed, g)
				clamped += c
			}
			slowdown = fmt.Sprintf("%+.1f%%", stats.Slowdown(stats.Mean(perSeed)))
			if clamped > 0 {
				// A clamped cell means some normalized time was zero or
				// negative — flag the average instead of hiding the cell.
				slowdown += fmt.Sprintf(" [%d clamped]", clamped)
			}
		}
		t.AddRow(string(pol),
			fmt.Sprintf("%d", len(rs)),
			fmt.Sprintf("%.3f", stats.Mean(ipcs)),
			slowdown)
	}
	return t
}

// resultCSVHeader is the per-job export schema. The variant column is
// always empty; it is kept so the export's columns stay those of earlier
// exports.
var resultCSVHeader = []string{
	"workload", "policy", "variant", "seed", "cycles", "instructions", "ipc",
	"mispredict_rate", "l1_miss_rate", "squash_pki", "loads_per_squash",
	"wait_per_squash", "cleanup_per_squash", "traffic_total",
}

func resultCSVRow(wl string, p sim.Policy, seed uint64, res sim.Result) []string {
	return []string{
		wl, string(p), "", fmt.Sprintf("%d", seed),
		fmt.Sprintf("%d", res.Cycles),
		fmt.Sprintf("%d", res.Instructions),
		fmt.Sprintf("%.4f", res.IPC),
		fmt.Sprintf("%.4f", res.MispredictRate),
		fmt.Sprintf("%.4f", res.L1MissRate),
		fmt.Sprintf("%.3f", res.SquashPKI),
		fmt.Sprintf("%.3f", res.LoadsPerSquash),
		fmt.Sprintf("%.2f", res.WaitPerSquash),
		fmt.Sprintf("%.2f", res.CleanupPerSquash),
		fmt.Sprintf("%d", res.Traffic.Total()),
	}
}

// ResultsCSV writes one CSV row per successful job, in job order.
func ResultsCSV(w io.Writer, results []JobResult) error {
	t := stats.NewTable("", resultCSVHeader...)
	for _, r := range results {
		if r.Failed() {
			continue
		}
		rc := r.Job.Config.Resolved()
		t.AddRow(resultCSVRow(r.Job.Workload, rc.Policy, rc.Seed, r.Result)...)
	}
	_, err := io.WriteString(w, t.CSV())
	return err
}

// EntriesCSV writes one CSV row per cache entry (for `campaign export`,
// which rebuilds a report from the cache without re-expanding a grid).
func EntriesCSV(w io.Writer, entries []Entry) error {
	t := stats.NewTable("", resultCSVHeader...)
	for _, e := range entries {
		t.AddRow(resultCSVRow(e.Workload, e.Policy, e.Seed, e.Result)...)
	}
	_, err := io.WriteString(w, t.CSV())
	return err
}
